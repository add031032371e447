package main

import (
	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/serve"
	"gem5aladdin/internal/soc"
)

// Every input the program receives is derived here from the --seed
// argument through rng, so one seed always yields the same inputs and the
// program never sees the seed itself.

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes xs in place (Fisher-Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// stratum is one (kernel, memory system, fabric) cell of a study.
type stratum struct {
	Kernel string         `json:"kernel"`
	Mem    soc.MemKind    `json:"mem"`
	Fabric soc.FabricKind `json:"fabric"`
}

var (
	mems    = []soc.MemKind{soc.DMA, soc.Cache}
	fabrics = soc.FabricKinds()
)

// strata crosses every kernel with both memory systems and every fabric, in
// a fixed order.
func strata(kernels []string) []stratum {
	var out []stratum
	for _, k := range kernels {
		for _, m := range mems {
			for _, f := range fabrics {
				out = append(out, stratum{Kernel: k, Mem: m, Fabric: f})
			}
		}
	}
	return out
}

// searchSpace is the paper-scale space of one memory system: the default
// search axes plus the fabric axis, over the nominal base config.
func searchSpace(mem soc.MemKind) dse.SearchSpace {
	base := soc.DefaultConfig()
	base.Mem = mem
	return dse.SearchSpace{Base: base, Axes: append(dse.DefaultSearchAxes(mem), dse.FabricAxis())}
}

// --- grid ---

// gridPerStratum is the number of design points drawn per stratum. It
// equals the number of lane values, so a Latin-hypercube draw visits every
// lane count exactly once per stratum; lanes set most of a point's host
// cost, and balancing them keeps the cost of every seed comparable.
const gridPerStratum = 6

// gridPoint is one drawn design point: its stratum and its axis-value
// indices into searchSpace(stratum.Mem).
type gridPoint struct {
	Stratum int   `json:"stratum"`
	Idx     []int `json:"idx"`
}

// gridInput is the grid workload's whole input: the strata, the points of
// every sweep, and the points the correctness check recomputes. A sweep is
// one (kernel, memory system) design space across every fabric, as in the
// paper's per-kernel, per-memory-system studies.
type gridInput struct {
	Strata []stratum      `json:"strata"`
	Sweeps [][]gridPoint  `json:"sweeps"`
	Check  []gridPointRef `json:"check"`
}

// gridPointRef names one point by sweep and position in it.
type gridPointRef struct {
	Sweep int `json:"sweep"`
	Pos   int `json:"pos"`
}

// makeGridInput draws gridPerStratum points per stratum by Latin-hypercube
// sampling of the search axes, and one check point per stratum.
func makeGridInput(seed uint64, kernels []string) gridInput {
	r := &rng{s: seed}
	in := gridInput{Strata: strata(kernels), Sweeps: make([][]gridPoint, len(kernels)*len(mems))}
	for si, st := range in.Strata {
		sw := si / len(fabrics) // strata run kernel -> memory -> fabric
		pts := latinHypercube(r, searchSpace(st.Mem), st.Fabric, gridPerStratum)
		base := len(in.Sweeps[sw])
		for _, idx := range pts {
			in.Sweeps[sw] = append(in.Sweeps[sw], gridPoint{Stratum: si, Idx: idx})
		}
		in.Check = append(in.Check, gridPointRef{Sweep: sw, Pos: base + r.intn(gridPerStratum)})
	}
	return in
}

// latinHypercube draws n valid points of sp with the fabric axis pinned:
// every other axis takes each of its values equally often (to within one),
// in a seeded order. A draw containing an invalid config is redrawn whole.
func latinHypercube(r *rng, sp dse.SearchSpace, fab soc.FabricKind, n int) [][]int {
	for {
		pts := make([][]int, n)
		for i := range pts {
			pts[i] = make([]int, len(sp.Axes))
		}
		for a, ax := range sp.Axes {
			if ax.Name == "fabric" {
				for i := range pts {
					pts[i][a] = int(fab)
				}
				continue
			}
			col := make([]int, 0, n)
			for len(col) < n {
				perm := make([]int, len(ax.Values))
				for i := range perm {
					perm[i] = i
				}
				shuffle(r, perm)
				col = append(col, perm...)
			}
			col = col[:n]
			shuffle(r, col)
			for i := range pts {
				pts[i][a] = col[i]
			}
		}
		ok := true
		for _, p := range pts {
			if sp.Config(p).Validate() != nil {
				ok = false
				break
			}
		}
		if ok {
			return pts
		}
	}
}

// --- search ---

// searchKernels is the search workload's fixed kernel set: four kernels on
// DMA and four on the cache, each searched over its memory system's default
// axes plus the fabric axis. The kernels are of similar size, so no single
// search dominates a pass and the pass time averages over eight
// trajectories.
var searchKernels = []struct {
	Kernel string
	Mem    soc.MemKind
}{
	{"spmv-crs", soc.DMA},
	{"stencil-stencil3d", soc.DMA},
	{"fft-strided", soc.DMA},
	{"viterbi-viterbi", soc.DMA},
	{"fft-transpose", soc.Cache},
	{"backprop-backprop", soc.Cache},
	{"sort-merge", soc.Cache},
	{"aes-aes", soc.Cache},
}

// Every search evaluates searchBudget candidates: a uniform sample of
// searchInit, then refinement rounds of searchRound.
const (
	searchBudget = 128
	searchInit   = 64
	searchRound  = 32
)

// searchColdPasses is the number of cold passes; each searches every
// kernel under its own seeds against its own fresh store.
const searchColdPasses = 5

// searchInput holds the search seeds: Seeds[pass][kernel].
type searchInput struct {
	Seeds [][]uint64 `json:"seeds"`
}

func makeSearchInput(seed uint64) searchInput {
	r := &rng{s: seed}
	in := searchInput{Seeds: make([][]uint64, searchColdPasses)}
	for p := range in.Seeds {
		for range searchKernels {
			in.Seeds[p] = append(in.Seeds[p], r.next())
		}
	}
	return in
}

// --- serve ---

// The serve traffic runs in passes, each against a fresh server and store,
// so every pass is the same mix of misses and hits however fast the server
// is; a faster server only runs more passes. Every request is a grid in
// the shape cmd/dse sweeps by default: the QuickAxes grid of one kernel and
// memory system (9 points on DMA, 18 on the cache) on one fabric, over the
// default 32-bit bus.
//
// A pass has two phases. First it brings one new grid for every (kernel,
// memory system), in the fixed order a study script walks them: kernels as
// machsuite lists them, DMA before the cache. Each (kernel, memory system)
// starts on a seeded fabric and moves on by one fabric from pass to pass,
// so every three consecutive passes cover every stratum. Once every new
// grid has been answered, serveRepeats repeats per new grid follow, each
// drawn uniformly from the pass's grids: memory-cache hits, as a script
// that sweeps and then re-reads its results makes. serveJobsPerPass of the
// repeats go to POST /jobs instead and are read to their NDJSON summary
// line.
//
// p90 falls among the misses, whose latency is mostly queue wait behind
// the other client's grid, so it depends on which grids run side by side.
// The fixed order gives every grid the same neighbours in every pass and
// under every seed, and the phases keep repeats from joining a grid still
// simulating; README.md gives the spread of p90 with and without them.
const (
	// serveRepeats is the number of repeats per new grid. No record of the
	// service's use exists to derive it from; it is a choice that makes
	// most requests repeats, as scripts that re-read their results do.
	// README.md gives each end-to-end metric's measured response to
	// halving and doubling it.
	serveRepeats = 4
	// serveJobsPerPass repeats of a pass, about one operation in 24, run as
	// grid jobs.
	serveJobsPerPass = 8
	// serveCheckEvery sets the correctness sample: about one /sweep reply
	// in serveCheckEvery is flagged; every job is checked.
	serveCheckEvery = 20
)

// serveOp is one closed-loop operation: a POST /sweep, or a POST /jobs read
// to its NDJSON summary line.
type serveOp struct {
	Job     bool               `json:"job,omitempty"`
	New     bool               `json:"new,omitempty"`
	Check   bool               `json:"check,omitempty"`
	Stratum int                `json:"stratum"`
	Req     serve.SweepRequest `json:"req"`
}

// serveTraffic generates the serve workload's passes in order. It is not
// safe for concurrent use.
type serveTraffic struct {
	r      rng
	strata []stratum
	// phase[g] is the fabric the g-th (kernel, memory system) takes in the
	// first pass.
	phase  []int
	passes int
}

func newServeTraffic(seed uint64) *serveTraffic {
	t := &serveTraffic{r: rng{s: seed}, strata: strata(machsuite.Names())}
	t.phase = make([]int, len(t.strata)/len(fabrics))
	for g := range t.phase {
		t.phase[g] = t.r.intn(len(fabrics))
	}
	return t
}

// warmup returns one single-point request per kernel, which compiles the
// kernel inside the server. Two lanes lie outside QuickAxes, so no warm-up
// point is part of a pass's grids.
func (t *serveTraffic) warmup() []serveOp {
	var ops []serveOp
	for i, st := range t.strata {
		if st.Mem != soc.DMA || st.Fabric != soc.FabricBus {
			continue
		}
		req := serve.SweepRequest{Kernel: st.Kernel, Mem: "dma", Lanes: []int{2}, Partitions: []int{2}}
		ops = append(ops, serveOp{Stratum: i, Req: req})
	}
	return ops
}

// servePass is one pass's operations in its two phases; the repeats start
// once every new grid has been answered.
type servePass struct {
	New     []serveOp `json:"new"`
	Repeats []serveOp `json:"repeats"`
}

// pass returns the operations of the next pass. A new grid is the grid
// `cmd/dse -bench K -mem M -fabrics F` sweeps for its stratum.
func (t *serveTraffic) pass() servePass {
	p := t.passes
	t.passes++
	var out servePass
	for g := range t.phase {
		si := g*len(fabrics) + (t.phase[g]+p)%len(fabrics) // strata run kernel -> memory -> fabric
		st := t.strata[si]
		req := serve.SweepRequest{Kernel: st.Kernel, Mem: st.Mem.String(), Fabrics: []string{st.Fabric.String()}}
		out.New = append(out.New, serveOp{New: true, Check: t.r.intn(serveCheckEvery) == 0, Stratum: si, Req: req})
	}
	for range serveRepeats * len(out.New) {
		rep := out.New[t.r.intn(len(out.New))]
		rep.New = false
		rep.Check = t.r.intn(serveCheckEvery) == 0
		out.Repeats = append(out.Repeats, rep)
	}
	jobs := make([]int, len(out.Repeats))
	for i := range jobs {
		jobs[i] = i
	}
	shuffle(&t.r, jobs)
	for _, i := range jobs[:serveJobsPerPass] {
		out.Repeats[i].Job, out.Repeats[i].Check = true, true
	}
	return out
}
