package dse

// Adaptive Pareto-guided search: the layer that replaces exhaustive grids
// over design spaces of 10^5-10^6 points that the grid sweeper cannot touch.
// The engine is round-based: a coarse seeded sample, then iterative
// refinement that mutates configs near the current Pareto front, driven by a
// splitmix64-seeded RNG so the same seed yields a bit-identical evaluation
// sequence and final front. Frontier state checkpoints to the result store
// after every round, so a killed search resumes under its original job ID
// and converges to the identical front.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/soc"
)

// --- Search space ---

// SearchAxis is one named dimension of a SearchSpace: a design parameter and
// the ordered list of values it may take. Axis names come from the fixed
// registry below (setAxis); SearchSpace.Validate rejects unknown names, so a
// space description survives serialization without carrying code.
type SearchAxis struct {
	Name   string `json:"name"`
	Values []int  `json:"values"`
}

// setAxis sets the Config field the axis name registers and reports whether
// the name is registered. Values are plain ints on the wire; boolean axes
// treat nonzero as true, accel_mhz scales to Hz. A switch rather than a
// table of setter closures: an indirect call would move every config the
// caller sets to the heap, one allocation per grid point.
func setAxis(c *soc.Config, name string, v int) bool {
	switch name {
	case "lanes":
		c.Lanes = v
	case "partitions":
		c.Partitions = v
	case "spad_ports":
		c.SpadPorts = v
	case "cache_kb":
		c.CacheKB = v
	case "cache_line":
		c.CacheLineBytes = v
	case "cache_ports":
		c.CachePorts = v
	case "cache_assoc":
		c.CacheAssoc = v
	case "mshrs":
		c.MSHRs = v
	case "prefetch":
		c.Prefetch = v != 0
	case "pipelined_dma":
		c.PipelinedDMA = v != 0
	case "dma_triggered":
		c.DMATriggered = v != 0
	case "dma_chunk":
		c.DMAChunkBytes = uint32(v)
	case "bus_bits":
		c.BusWidthBits = v
	case "accel_mhz":
		c.AccelHz = float64(v) * 1e6
	case "fabric":
		c.Fabric.Kind = soc.FabricKind(v)
	case "burst_len":
		c.Fabric.BurstLen = v
	case "mesh_dim":
		c.Fabric.MeshDim = v
	default:
		return false
	}
	return true
}

// FabricAxis is the fabric-topology search axis over every backend
// (values are soc.FabricKind ordinals: bus, crossbar, mesh).
func FabricAxis() SearchAxis { return WithFabricAxis(nil, soc.FabricKinds())[0] }

// WithFabricAxis returns axes with a fabric axis over kinds appended,
// unless kinds is empty or axes already name a fabric axis. axes itself is
// never modified.
func WithFabricAxis(axes []SearchAxis, kinds []soc.FabricKind) []SearchAxis {
	if len(kinds) == 0 {
		return axes
	}
	for _, a := range axes {
		if a.Name == "fabric" {
			return axes
		}
	}
	vals := make([]int, len(kinds))
	for i, k := range kinds {
		vals[i] = int(k)
	}
	return append(axes[:len(axes):len(axes)], SearchAxis{Name: "fabric", Values: vals})
}

// SearchSpace is the one description of a design space: a base config
// (memory kind, bus, faults, everything the axes leave alone) and the axes
// that vary. Any Config field with a registered axis name can be an axis. A
// sweep walks a space exhaustively (Grid over GridSpace, the Fig 3 table); an
// adaptive search samples one whose cross product reaches 10^5-10^6 points.
type SearchSpace struct {
	Base soc.Config
	Axes []SearchAxis
}

// Validate checks the space description: every axis must have a registered
// name, appear once, and have at least one value, and the cross product
// must fit in a uint64 — the point codec ranks points as uint64s, and a
// product that wraps would size the space wrongly (to zero, even).
func (sp SearchSpace) Validate() error {
	if len(sp.Axes) == 0 {
		return errors.New("dse: search space has no axes")
	}
	seen := make(map[string]bool, len(sp.Axes))
	size := uint64(1)
	for _, a := range sp.Axes {
		if !setAxis(&soc.Config{}, a.Name, 0) {
			return fmt.Errorf("dse: unknown search axis %q", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("dse: search axis %q appears more than once", a.Name)
		}
		seen[a.Name] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("dse: search axis %q has no values", a.Name)
		}
		hi, lo := bits.Mul64(size, uint64(len(a.Values)))
		if hi != 0 {
			return errors.New("dse: search space has more than 2^64-1 points")
		}
		size = lo
	}
	return nil
}

// Size returns the number of points in the cross product (including points
// Config validation will later reject as infeasible).
func (sp SearchSpace) Size() uint64 {
	n := uint64(1)
	for _, a := range sp.Axes {
		n *= uint64(len(a.Values))
	}
	return n
}

// Config materializes the design point at the given axis-value indices.
func (sp SearchSpace) Config(idx []int) soc.Config {
	c := sp.Base
	for i, a := range sp.Axes {
		setAxis(&c, a.Name, a.Values[idx[i]])
	}
	return c
}

// Grid walks the whole cross product as an odometer, in rank order (the
// last axis varies fastest), and keeps the points Config.Validate accepts —
// the rule the search applies to its candidates, so an infeasible corner
// such as a 64-way 2 KB cache of 64 B lines is skipped. It is how a sweep
// enumerates a grid: every point is visited, so validate and bound the
// space (Validate, Size) before walking one a client described.
func (sp SearchSpace) Grid() []soc.Config {
	n := sp.Size()
	if n == 0 {
		return nil
	}
	out := make([]soc.Config, 0, n)
	idx := make([]int, len(sp.Axes))
	for {
		if c := sp.Config(idx); c.Validate() == nil {
			out = append(out, c)
		}
		i := len(idx) - 1
		for ; i >= 0 && idx[i]+1 == len(sp.Axes[i].Values); i-- {
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
		idx[i]++
	}
}

// Rank maps axis indices to the point's lexicographic rank in the cross
// product — the stable point codec the checkpoint format builds on. Unrank
// inverts it.
func (sp SearchSpace) Rank(idx []int) uint64 {
	r := uint64(0)
	for i, a := range sp.Axes {
		r = r*uint64(len(a.Values)) + uint64(idx[i])
	}
	return r
}

// Unrank maps a lexicographic rank back to axis indices.
func (sp SearchSpace) Unrank(r uint64) []int {
	idx := make([]int, len(sp.Axes))
	for i := len(sp.Axes) - 1; i >= 0; i-- {
		m := uint64(len(sp.Axes[i].Values))
		idx[i] = int(r % m)
		r /= m
	}
	return idx
}

// Fingerprint content-addresses the search problem: the kernel, the base
// config's canonical encoding, every axis, and the seed. Checkpoints carry
// it so a resume against a different space, kernel, or seed starts fresh
// instead of silently mixing incompatible frontier state.
func (sp SearchSpace) Fingerprint(kernel string, seed uint64) string {
	h := sha256.New()
	h.Write([]byte("dse.SearchSpace/v1"))
	h.Write([]byte(kernel))
	h.Write([]byte{0})
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	h.Write(sp.Base.AppendCanonical(nil))
	for _, a := range sp.Axes {
		h.Write([]byte(a.Name))
		h.Write([]byte{0})
		for _, v := range a.Values {
			binary.BigEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DefaultSearchAxes returns the large search space for a memory system:
// the full Fig 3 grid axes plus the parameters the grid sweeper never
// touches (clock, MSHRs, prefetch, DMA mode bits, bus width). The cache
// cross product is ~10^5 points, far beyond exhaustive reach.
func DefaultSearchAxes(mem soc.MemKind) []SearchAxis {
	common := []SearchAxis{
		{Name: "lanes", Values: []int{1, 2, 4, 8, 16, 32}},
		{Name: "accel_mhz", Values: []int{100, 200, 400}},
		{Name: "bus_bits", Values: []int{32, 64}},
	}
	if mem == soc.Cache {
		return append(common,
			SearchAxis{Name: "cache_kb", Values: []int{2, 4, 8, 16, 32, 64}},
			SearchAxis{Name: "cache_line", Values: []int{16, 32, 64}},
			SearchAxis{Name: "cache_ports", Values: []int{1, 2, 4, 8}},
			SearchAxis{Name: "cache_assoc", Values: []int{1, 2, 4, 8, 16}},
			SearchAxis{Name: "mshrs", Values: []int{4, 8, 16, 32}},
			SearchAxis{Name: "prefetch", Values: []int{0, 1}},
		)
	}
	return append(common,
		SearchAxis{Name: "partitions", Values: []int{1, 2, 4, 8, 16, 32}},
		SearchAxis{Name: "spad_ports", Values: []int{1, 2, 4}},
		SearchAxis{Name: "pipelined_dma", Values: []int{0, 1}},
		SearchAxis{Name: "dma_triggered", Values: []int{0, 1}},
		SearchAxis{Name: "dma_chunk", Values: []int{1024, 4096, 16384}},
	)
}

// --- Options, progress, result ---

// SearchOptions tunes the adaptive search. Zero values select defaults.
type SearchOptions struct {
	// Seed drives the splitmix64 RNG behind sampling and mutation. The
	// same seed over the same space yields a bit-identical evaluation
	// sequence and final front, independent of worker count.
	Seed uint64
	// Budget caps the number of candidates the search evaluates (its
	// simulation budget on a cold store). Deliberately counted in
	// evaluated candidates, not fresh simulations: a resumed search
	// replays stored points but walks the identical sequence, which is
	// what keeps resume bit-identical. Defaults to 512.
	Budget int
	// InitSamples sizes the round-0 coarse sample. Defaults to
	// min(64, Budget).
	InitSamples int
	// RoundSize is the number of fresh candidates per refinement round.
	// Defaults to 32.
	RoundSize int
	// Patience stops the search after this many consecutive rounds that
	// leave the Pareto front unchanged. Defaults to 3.
	Patience int
	// Workers sizes the evaluation pool, as in SweepOptions.
	Workers int
	// Retry bounds per-point retries of fault-injection aborts.
	Retry RetryPolicy
	// Cache serves previously stored point outcomes and writes fresh ones
	// through, exactly as in SweepOptions; with a populated store a
	// resumed or repeated search replays points instead of re-simulating.
	// (Evaluator.Search evaluates on its evaluator's pool, policy and
	// store, so there Workers and Retry are unused and Cache only holds
	// the checkpoint.)
	Cache *StoreCache
	// CheckpointKey, when non-empty (requires Cache), persists the
	// frontier state under this key in Cache.Store after every round. A
	// later Search with the same key, space, kernel, and seed restores the
	// state and continues; a fingerprint mismatch starts fresh.
	CheckpointKey string
	// Progress, when non-nil, is called after every completed round — and,
	// on resume, once per restored round (Replayed=true) before the live
	// rounds continue, so a consumer rebuilding a stream sees the same
	// sequence an uninterrupted run produced.
	Progress func(SearchProgress)
}

func (o *SearchOptions) setDefaults() {
	if o.Budget <= 0 {
		o.Budget = 512
	}
	if o.InitSamples <= 0 {
		o.InitSamples = 64
	}
	if o.InitSamples > o.Budget {
		o.InitSamples = o.Budget
	}
	if o.RoundSize <= 0 {
		o.RoundSize = 32
	}
	if o.Patience <= 0 {
		o.Patience = 3
	}
}

// SearchPoint is one evaluated candidate in compact, serializable form: its
// axis-value indices and objectives. Failed candidates (robustness aborts,
// simulation errors) keep their slot with Failed set so dedup survives a
// resume without re-simulating known-poisoned points.
type SearchPoint struct {
	Idx     []int   `json:"i"`
	Failed  bool    `json:"failed,omitempty"`
	Runtime int64   `json:"runtime,omitempty"` // simulated ticks (ps)
	PowerW  float64 `json:"power_w,omitempty"`
	EDPJs   float64 `json:"edp_js,omitempty"`
}

// SearchProgress reports one completed round. Round, Evaluated, FrontSize,
// and Front are deterministic for a given (space, kernel, seed, budget);
// Simulated varies with store contents (a resumed search replays points) and
// Replayed marks rounds re-emitted from a checkpoint.
type SearchProgress struct {
	Round     int
	Evaluated int
	Simulated int
	FrontSize int
	Front     []SearchPoint
	Replayed  bool
}

// SearchResult is the outcome of a search.
type SearchResult struct {
	// Front is the final Pareto front with full simulation results,
	// sorted by runtime. Because EDP = power x runtime^2, the EDP optimum
	// of everything evaluated always lies on this front.
	Front Space
	// Points is every evaluated candidate in evaluation order — the
	// sequence the determinism contract fixes.
	Points []SearchPoint
	// Rounds counts completed rounds (round 0 is the coarse sample).
	Rounds int
	// Evaluated counts candidates evaluated; Simulated counts the subset
	// that actually simulated (the rest replayed from the store).
	Evaluated int
	Simulated int
	// SpaceSize is the cross-product size of the searched space.
	SpaceSize uint64
	// Converged reports that the front went stale (Patience rounds with
	// no change) or the space was exhausted, rather than the budget
	// running out.
	Converged bool
}

// --- Seeded RNG ---

// searchRNG is a splitmix64 stream: one uint64 of state, advanced by the
// golden-ratio increment and finalized by mix64-style avalanche. The state
// alone checkpoints the whole stream position.
type searchRNG struct{ state uint64 }

func (r *searchRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// --- Checkpoint format ---

// searchSchema versions the checkpoint record; a record of another schema
// is ignored (fresh start), never an error. Schema 1 was a JSON record.
const searchSchema = 2

// A checkpoint record is
//
//	[searchMagic][searchSchema][fingerprint, 64 hex bytes]
//	[round][RNG state, 8 bytes little-endian][stale]
//	[round_evals: round uvarints][point count][points]
//
// where round, stale and the counts are uvarints. Each point, in evaluation
// order, is its SearchSpace.Rank as a uvarint and a flag byte, 1 for a
// failed point; a completed point (flag 0) then carries its runtime as a
// varint and its power and EDP as float64 bits, 8 bytes little-endian each.
// The fingerprint pins the space, so a rank names exactly one point.
// searchMagic differs from pointMagic, so a checkpoint and a point record
// are never mistaken for each other.
const searchMagic = 0xA8

// searchState is the durable frontier state written after every round: the
// RNG position, the stall counter, per-round cumulative evaluation counts,
// and the archive of every evaluated candidate with its objectives. Fronts
// are not stored — the front after round r is recomputed from the archive
// prefix, which keeps the record compact and impossible to desynchronize.
type searchState struct {
	Round      int
	RNG        uint64
	Stale      int
	RoundEvals []int
	Archive    []candidate
}

// --- Engine ---

// candidate is one archive entry: the compact point plus the in-memory
// result when this process simulated it (nil after a resume).
type candidate struct {
	SearchPoint
	cfg soc.Config
	key string
	res *soc.RunResult
}

// Search runs the adaptive Pareto-guided search over the space: a coarse
// seeded sample, then rounds of mutation around the current front until the
// budget is spent, the front stalls for Patience rounds, or the space is
// exhausted. Candidates are deduplicated by PointKey before simulation, so
// mutation collisions and resumed rounds never re-simulate a point.
//
// Determinism contract: the same (kernel, space, seed, budget, round sizes)
// produce a bit-identical candidate sequence and final front regardless of
// worker count or store contents. Cancellation behaves as in Sweep: the
// search stops at the next design-point boundary and returns ctx.Err().
//
// When ctx carries an obs span, every round becomes a child span (with the
// per-point spans nested under it), so a traced search renders its rounds as
// one Perfetto group each.
func Search(ctx context.Context, k *soc.Compiled, space SearchSpace, opts SearchOptions) (*SearchResult, error) {
	opts.setDefaults()
	ev, kernel := privateEvaluator(opts.Workers, opts.Budget, opts.Cache, opts.Retry)
	defer ev.Close(context.Background())
	return ev.Search(ctx, kernel, k, space, opts)
}

// Search runs the adaptive search of the package-level Search on the
// evaluator's pool, policy and store, so a search shares its points —
// singleflight, memory cache and all — with every other caller of ev.
// kernel names k in point keys and the checkpoint fingerprint; opts.Cache,
// when set, only holds the checkpoint.
func (ev *Evaluator) Search(ctx context.Context, kernel string, k *soc.Compiled, space SearchSpace, opts SearchOptions) (*SearchResult, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	fp := space.Fingerprint(kernel, opts.Seed)

	var (
		rng        = searchRNG{state: opts.Seed}
		archive    []candidate
		seen       = map[string]int{} // PointKey -> archive index
		roundEvals []int
		round      int
		stale      int
		simulated  int
	)
	// Resume: restore the frontier state checkpointed by an earlier run of
	// the same search, then replay its progress so stream consumers see the
	// identical round sequence.
	if st := loadSearchState(opts, space, fp); st != nil {
		round, stale, roundEvals, archive = st.Round, st.Stale, st.RoundEvals, st.Archive
		rng.state = st.RNG
		for i := range archive {
			c := &archive[i]
			c.cfg = space.Config(c.Idx)
			c.key = PointKey(kernel, c.cfg)
			seen[c.key] = i
		}
		if opts.Progress != nil {
			for r, cum := range roundEvals {
				front := frontOf(archive[:cum])
				opts.Progress(SearchProgress{
					Round:     r,
					Evaluated: cum,
					FrontSize: len(front),
					Front:     frontPoints(archive, front),
					Replayed:  true,
				})
			}
		}
	}

	parent := obs.SpanFromContext(ctx)
	size := space.Size()
	converged := false
	front := frontOf(archive)
	for {
		if len(archive) >= opts.Budget {
			break
		}
		if round > 0 && stale >= opts.Patience {
			converged = true
			break
		}
		target := opts.RoundSize
		if round == 0 {
			target = opts.InitSamples
		}
		if rem := opts.Budget - len(archive); target > rem {
			target = rem
		}
		fresh := generate(&rng, space, kernel, seen, archive, front, target, size)
		if len(fresh) == 0 {
			// The mutation neighborhood and random sampling are exhausted:
			// everything reachable is already evaluated.
			converged = true
			break
		}

		rs := parent.Child("search-round")
		rs.SetAttr("round", round)
		rs.SetAttr("candidates", len(fresh))
		cfgs := make([]soc.Config, len(fresh))
		keys := make([]string, len(fresh))
		for i, c := range fresh {
			cfgs[i], keys[i] = c.cfg, c.key
		}
		outs, err := ev.evaluateKeyed(obs.WithSpan(ctx, rs), k, cfgs, keys, nil)
		if err != nil {
			rs.EndSpan()
			return nil, err
		}
		for i, o := range outs {
			c := fresh[i]
			if o.Simulated {
				simulated++
			}
			if o.Res == nil {
				c.Failed = true
			} else {
				c.res = o.Res
				c.Runtime = int64(o.Res.Runtime)
				c.PowerW = o.Res.AvgPowerW
				c.EDPJs = o.Res.EDPJs
			}
			seen[c.key] = len(archive)
			archive = append(archive, c)
		}

		newFront := frontOf(archive)
		if slices.Equal(front, newFront) {
			stale++
		} else {
			stale = 0
		}
		front = newFront
		round++
		roundEvals = append(roundEvals, len(archive))
		rs.SetAttr("evaluated", len(archive))
		rs.SetAttr("front", len(front))
		rs.EndSpan()

		saveSearchState(opts, space, fp, &searchState{
			Round:      round,
			RNG:        rng.state,
			Stale:      stale,
			RoundEvals: roundEvals,
			Archive:    archive,
		})
		if opts.Progress != nil {
			opts.Progress(SearchProgress{
				Round:     round - 1,
				Evaluated: len(archive),
				Simulated: simulated,
				FrontSize: len(front),
				Front:     frontPoints(archive, front),
			})
		}
	}

	if len(front) == 0 {
		return nil, fmt.Errorf("dse: search evaluated %d points, none survived: %w",
			len(archive), ErrEmptySpace)
	}
	frontSpace, err := ev.materialize(ctx, k, archive, front)
	if err != nil {
		return nil, err
	}
	return &SearchResult{
		Front:     frontSpace,
		Points:    archivePoints(archive),
		Rounds:    round,
		Evaluated: len(archive),
		Simulated: simulated,
		SpaceSize: size,
		Converged: converged,
	}, nil
}

// generate produces up to target fresh candidates: deduplicated by PointKey
// against everything already evaluated and within the batch, validated, and
// in a deterministic order. With a non-empty front it mutates front members
// (one or two axis steps, occasionally a jump) and mixes in one uniform
// immigrant per eight slots; with an empty front (round 0, or every point so
// far failed) it samples uniformly.
func generate(rng *searchRNG, space SearchSpace, kernel string, seen map[string]int,
	archive []candidate, front []int, target int, size uint64) []candidate {
	var fresh []candidate
	batch := map[string]bool{}
	maxTries := target * 64
	for tries := 0; len(fresh) < target && tries < maxTries; tries++ {
		var idx []int
		if len(front) == 0 || rng.next()%8 == 0 {
			idx = space.Unrank(rng.next() % size)
		} else {
			parent := archive[front[int(rng.next()%uint64(len(front)))]]
			idx = mutate(rng, space, parent.Idx)
		}
		cfg := space.Config(idx)
		if cfg.Validate() != nil {
			continue // infeasible corner of the cross product
		}
		key := PointKey(kernel, cfg)
		if _, dup := seen[key]; dup || batch[key] {
			continue // mutation collision or already-evaluated point
		}
		batch[key] = true
		fresh = append(fresh, candidate{
			SearchPoint: SearchPoint{Idx: idx},
			cfg:         cfg,
			key:         key,
		})
	}
	return fresh
}

// mutate perturbs one or two axes of the parent: usually a single step along
// the axis's ordered values (reflecting at the ends), occasionally a jump to
// a uniform value, which keeps the search local around the front without
// trapping it there.
func mutate(rng *searchRNG, space SearchSpace, parent []int) []int {
	out := append([]int(nil), parent...)
	n := 1 + int(rng.next()%2)
	for i := 0; i < n; i++ {
		a := int(rng.next() % uint64(len(space.Axes)))
		m := len(space.Axes[a].Values)
		if m == 1 {
			continue
		}
		switch rng.next() % 4 {
		case 0, 1: // step up
			if out[a]+1 < m {
				out[a]++
			} else {
				out[a]--
			}
		case 2: // step down
			if out[a] > 0 {
				out[a]--
			} else {
				out[a]++
			}
		default: // jump
			out[a] = int(rng.next() % uint64(m))
		}
	}
	return out
}

// frontOf returns the archive indices of the (runtime, power) Pareto front
// among non-failed entries, sorted by (runtime, power, archive order): the
// sweep of Space.ParetoFront, so exact duplicates survive together.
func frontOf(archive []candidate) []int {
	objs := make([]objective, 0, len(archive))
	for i := range archive {
		if p := &archive[i].SearchPoint; !p.Failed {
			objs = append(objs, objective{runtime: p.Runtime, power: p.PowerW, index: i})
		}
	}
	return paretoFront(objs)
}

// frontPoints snapshots the front at archive indices idx in compact form
// for progress reporting.
func frontPoints(archive []candidate, idx []int) []SearchPoint {
	out := make([]SearchPoint, len(idx))
	for i, j := range idx {
		out[i] = archive[j].SearchPoint
	}
	return out
}

func archivePoints(archive []candidate) []SearchPoint {
	out := make([]SearchPoint, len(archive))
	for i := range archive {
		out[i] = archive[i].SearchPoint
	}
	return out
}

// materialize rebuilds full simulation results for the front: points
// evaluated by this process carry them already, and the rest (restored
// from a checkpoint) come back from the evaluator — its cache or store, or
// a re-simulation when the checkpoint is ahead of a torn store, which
// yields the same result deterministically.
func (ev *Evaluator) materialize(ctx context.Context, k *soc.Compiled, archive []candidate, front []int) (Space, error) {
	out := make(Space, len(front))
	var missing []soc.Config
	var keys []string
	var at []int
	for j, i := range front {
		c := &archive[i]
		out[j] = Point{Cfg: c.cfg, Res: c.res}
		if c.res == nil {
			missing = append(missing, c.cfg)
			keys = append(keys, c.key)
			at = append(at, j)
		}
	}
	if len(missing) == 0 {
		return out, nil
	}
	outs, err := ev.evaluateKeyed(ctx, k, missing, keys, nil)
	if err != nil {
		return nil, err
	}
	for m, o := range outs {
		if o.Res == nil {
			return nil, fmt.Errorf("dse: re-materializing front point: %w", o.Err)
		}
		out[at[m]].Res = o.Res
	}
	return out, nil
}

// loadSearchState reads the checkpoint of the search fp names over space;
// any miss or record decodeSearchState rejects is a fresh start.
func loadSearchState(opts SearchOptions, space SearchSpace, fp string) *searchState {
	if opts.CheckpointKey == "" || opts.Cache == nil {
		return nil
	}
	data, ok, err := opts.Cache.Store.Get(opts.CheckpointKey)
	if err != nil || !ok {
		return nil
	}
	return decodeSearchState(data, space, fp)
}

// saveSearchState persists the checkpoint; a write failure is deliberately
// non-fatal (the search degrades to resume-from-an-earlier-round, and the
// point cache still makes the replay cheap).
func saveSearchState(opts SearchOptions, space SearchSpace, fp string, st *searchState) {
	if opts.CheckpointKey == "" || opts.Cache == nil {
		return
	}
	_ = opts.Cache.Store.Put(opts.CheckpointKey, encodeSearchState(space, fp, st))
}

// encodeSearchState writes st as a checkpoint record straight from its
// archive, into one buffer sized for the longest encoding.
func encodeSearchState(space SearchSpace, fp string, st *searchState) []byte {
	const pointMax = 2*binary.MaxVarintLen64 + 1 + 16 // rank, flag, runtime, power, EDP
	n := 2 + len(fp) + 8 + (3+len(st.RoundEvals))*binary.MaxVarintLen64 + len(st.Archive)*pointMax
	b := append(make([]byte, 0, n), searchMagic, searchSchema)
	b = append(b, fp...)
	b = binary.AppendUvarint(b, uint64(st.Round))
	b = binary.LittleEndian.AppendUint64(b, st.RNG)
	b = binary.AppendUvarint(b, uint64(st.Stale))
	for _, cum := range st.RoundEvals {
		b = binary.AppendUvarint(b, uint64(cum))
	}
	b = binary.AppendUvarint(b, uint64(len(st.Archive)))
	for i := range st.Archive {
		p := &st.Archive[i].SearchPoint
		b = binary.AppendUvarint(b, space.Rank(p.Idx))
		if p.Failed {
			b = append(b, 1)
			continue
		}
		b = binary.AppendVarint(append(b, 0), p.Runtime)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.PowerW))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.EDPJs))
	}
	return b
}

// decodeSearchState parses a checkpoint record of the search fp names over
// space. It returns nil — a fresh start, never an error — for anything
// else: another schema (a JSON record of schema 1 opens with '{'), another
// search, a point record, or a malformed or inconsistent record. Every
// count is checked against the bytes left before anything is allocated,
// and every integer must be minimally encoded, so a record has exactly one
// encoding. The archive's points carry their axis indices and objectives;
// the caller fills in their configs and keys.
func decodeSearchState(data []byte, space SearchSpace, fp string) *searchState {
	head := 2 + len(fp)
	if len(data) < head || data[0] != searchMagic || data[1] != searchSchema || string(data[2:head]) != fp {
		return nil
	}
	r := checkpointReader{b: data[head:]}
	round := r.count(1) // each round's cumulative count takes a byte
	rng, stale := r.uint64(), r.uvarint()
	if r.bad || stale > uint64(round) {
		return nil
	}
	evals := make([]int, round)
	prev := 0
	for i := range evals {
		// Cumulative counts rise every round and end at the point count,
		// which the bytes left bound.
		cum := r.uvarint()
		if r.bad || cum <= uint64(prev) || cum > uint64(len(data)) {
			return nil
		}
		evals[i], prev = int(cum), int(cum)
	}
	if n := r.count(2); r.bad || n != prev { // a point takes two bytes or more
		return nil
	}
	size := space.Size()
	archive := make([]candidate, prev)
	for i := range archive {
		rank, flag := r.uvarint(), r.uvarint() // a flag of 0 or 1 is one byte
		if r.bad || rank >= size || flag > 1 {
			return nil
		}
		p := &archive[i].SearchPoint
		p.Idx = space.Unrank(rank)
		if p.Failed = flag == 1; !p.Failed {
			p.Runtime = r.varint()
			p.PowerW = math.Float64frombits(r.uint64())
			p.EDPJs = math.Float64frombits(r.uint64())
		}
	}
	if r.bad || len(r.b) > 0 {
		return nil
	}
	return &searchState{Round: round, RNG: rng, Stale: int(stale), RoundEvals: evals, Archive: archive}
}

// checkpointReader reads a checkpoint record. The first malformed value
// sets bad, and every later read returns zero. It is not the point
// record's decodeFields: that one runs a compiled field program, returns an
// error per field and accepts any varint encoding of a value, while a
// checkpoint is read field by field and accepts only minimal varints, so
// an accepted record re-encodes to its own bytes.
type checkpointReader struct {
	b   []byte
	bad bool
}

func (r *checkpointReader) fail() {
	r.b, r.bad = nil, true
}

// uvarint reads a minimally encoded uvarint: a multi-byte one never ends in
// a zero byte.
func (r *checkpointReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return x
}

// varint reads a minimally encoded zig-zag varint.
func (r *checkpointReader) varint() int64 {
	x := r.uvarint()
	return int64(x>>1) ^ -int64(x&1)
}

// count reads the number of items that follow, each at least per bytes
// long, and rejects a count the bytes left cannot hold.
func (r *checkpointReader) count(per int) int {
	x := r.uvarint()
	if x > uint64(len(r.b)/per) {
		r.fail()
		return 0
	}
	return int(x)
}

func (r *checkpointReader) uint64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	x := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return x
}

// Hypervolume returns the (runtime, power) area dominated by s's Pareto
// front relative to the reference point (refSeconds, refWatts): the standard
// front-quality scalar, used to compare an adaptive search's front against
// the exhaustive one. Points at or beyond the reference contribute nothing.
// Units are seconds x watts.
func (s Space) Hypervolume(refSeconds, refWatts float64) float64 {
	hv := 0.0
	prevPower := refWatts
	for _, p := range s.ParetoFront() {
		rt, pw := p.Res.Seconds(), p.Res.AvgPowerW
		if rt >= refSeconds || pw >= prevPower {
			continue
		}
		hv += (refSeconds - rt) * (prevPower - pw)
		prevPower = pw
	}
	return hv
}
