// Package dse is the design-space explorer behind the paper's co-design
// studies: it sweeps accelerator design points (Fig 3's parameter table)
// over a kernel's DDDG, extracts Pareto frontiers and EDP-optimal designs
// (Figs 1 and 8), compares microarchitectural parameters across design
// scenarios (Fig 9), and computes the EDP improvement of co-design over
// isolated optimization (Figs 1 and 10).
package dse

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/trace"
)

// ErrEmptySpace reports a design-space query that needs at least one
// evaluated point but found none. Heavy fault injection can legally empty a
// space — every design point aborts and is compacted away — so callers that
// rank a swept space must be prepared for it; EDPImprovement wraps this
// sentinel when a scenario sweep comes back empty.
var ErrEmptySpace = errors.New("dse: empty design space")

// Point is one evaluated design.
type Point struct {
	Cfg soc.Config
	Res *soc.RunResult
}

// Space is a set of evaluated designs.
type Space []Point

// SweepOptions tunes the private evaluator a Sweep runs on. The zero value
// is the default sweep: GOMAXPROCS workers, no progress reporting, no
// persistence, no retries.
type SweepOptions struct {
	// Workers sizes the pool; <= 0 selects GOMAXPROCS. Each worker owns a
	// reusable soc.Runner, so the simulation state warmed up on one design
	// point is recycled on the next — the fixed pool exists for that reuse,
	// not just to bound concurrency (a goroutine per config would give
	// every point a cold fabric).
	Workers int
	// Progress, when non-nil, is called from the sweeping goroutine with
	// (done, total) as each point's outcome becomes final, in config order.
	Progress func(done, total int)
	// Cache, when non-nil, serves previously stored point outcomes and
	// writes fresh ones through to the result store, making the sweep
	// restartable: a rerun against the same store directory re-simulates
	// only the points the interrupted run never finished.
	Cache *StoreCache
	// Retry bounds per-point retries of fault-injection aborts before the
	// point is recorded as failed. The zero value never retries.
	Retry RetryPolicy
}

// Sweep evaluates every config over the compiled kernel k on a private
// Evaluator sized by opts. The artifact is shared read-only by every worker
// — each run owns a private simulation engine, so results are deterministic
// regardless of scheduling. The space holds one point per config, in config
// order; duplicate configs are simulated once and share the result.
//
// Cancellation (or a deadline) on ctx stops the workers at the next
// design-point boundary and returns ctx.Err(). A single design point is
// never interrupted mid-simulation — points run in the tens of
// milliseconds, so the boundary check bounds the cancellation latency —
// and a cancelled sweep returns no partial space. Long-running services use
// this to release worker goroutines when a client goes away.
//
// When ctx carries an obs span (obs.WithSpan), every design point gets a
// child span on a per-worker track, so a traced sweep renders one Perfetto
// row per worker with its sequence of point simulations. An untraced
// context costs one nil span check per point.
//
// A design point whose run the robustness layer aborted (watchdog stall,
// sanitizer violation, fault-injection retry exhaustion — soc.ErrAborted)
// is treated as poisoned and dropped from the space rather than failing the
// whole sweep; any other error still aborts.
func Sweep(ctx context.Context, k *soc.Compiled, cfgs []soc.Config, opts SweepOptions) (Space, error) {
	ev, kernel := privateEvaluator(opts.Workers, len(cfgs), opts.Cache, opts.Retry)
	defer ev.Close(context.Background())
	return ev.Sweep(ctx, kernel, k, cfgs, opts.Progress)
}

// Sweep evaluates every config on the evaluator's pool, policy and store,
// and returns the package-level Sweep's space: one point per config with a
// result, in config order. An aborted point is dropped; a genuine error
// (KindError) fails the call. kernel names k in point keys, so the sweep
// shares its points with every other caller of ev; progress is Evaluate's.
// The results are shared too: a caller must not modify them.
func (ev *Evaluator) Sweep(ctx context.Context, kernel string, k *soc.Compiled, cfgs []soc.Config, progress func(done, total int)) (Space, error) {
	outs, err := ev.Evaluate(ctx, kernel, k, cfgs, progress)
	if err != nil {
		return nil, err
	}
	space := make(Space, 0, len(cfgs))
	for i, o := range outs {
		switch {
		case o.Res != nil:
			space = append(space, Point{Cfg: cfgs[i], Res: o.Res})
		case o.Kind == KindError:
			return nil, fmt.Errorf("dse: config %d: %w", i, o.Err)
		}
	}
	return space, nil
}

// privateEvaluator builds the evaluator behind one Sweep or Search call: at
// most points workers, the cache's store, and the kernel name the cache
// keys points by. Without a cache the name is "": the evaluator evaluates
// one kernel only, so the name cannot alias two.
func privateEvaluator(workers, points int, cache *StoreCache, retry RetryPolicy) (*Evaluator, string) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opt := EvaluatorOptions{Workers: min(workers, max(points, 1)), Retry: retry}
	kernel := ""
	if cache != nil {
		opt.Store, kernel = cache.Store, cache.Kernel
	}
	return NewEvaluator(opt), kernel
}

// ParetoFront returns the points not dominated in (runtime, power): a
// point survives if no other point is at least as fast AND at least as
// low-power, with one strict. The result is sorted by runtime.
func (s Space) ParetoFront() Space {
	if len(s) == 0 {
		return nil
	}
	objs := make([]objective, len(s))
	for i, p := range s {
		objs[i] = objective{runtime: int64(p.Res.Runtime), power: p.Res.AvgPowerW, index: i}
	}
	idx := paretoFront(objs)
	front := make(Space, len(idx))
	for j, i := range idx {
		front[j] = s[i]
	}
	return front
}

// objective is one point's (runtime, power) pair and its index in the
// caller's list: what paretoFront sorts.
type objective struct {
	runtime int64
	power   float64
	index   int
}

// paretoFront is the one Pareto sweep, behind Space.ParetoFront and the
// search's archive fronts: it sorts objs by (runtime, power, index) in place
// and returns the indices of the undominated entries in that order. One sort
// plus a min-power sweep, O(n log n): after the sort any dominator of a
// point precedes it, so a point is dominated iff some earlier point has
// strictly lower power, or equal power with strictly lower runtime (the
// duplicate-coordinates case, where exact ties survive together).
func paretoFront(objs []objective) []int {
	if len(objs) == 0 {
		return nil
	}
	slices.SortFunc(objs, func(p, q objective) int {
		switch {
		case p.runtime < q.runtime:
			return -1
		case p.runtime > q.runtime:
			return 1
		case p.power < q.power:
			return -1
		case p.power > q.power:
			return 1
		}
		return p.index - q.index
	})
	var front []int
	minPower := objs[0].power
	minPowerRuntime := objs[0].runtime
	for _, p := range objs {
		dominated := minPower < p.power ||
			(minPower == p.power && minPowerRuntime < p.runtime)
		if !dominated {
			front = append(front, p.index)
		}
		if p.power < minPower {
			minPower, minPowerRuntime = p.power, p.runtime
		}
	}
	return front
}

// EDPOptimal returns the point with the minimum energy-delay product. ok is
// false on an empty space — which a fault-heavy sweep can legally produce
// after poisoned-point compaction — never a panic.
func (s Space) EDPOptimal() (Point, bool) {
	if len(s) == 0 {
		return Point{}, false
	}
	best := s[0]
	for _, p := range s[1:] {
		if p.Res.EDPJs < best.Res.EDPJs {
			best = p
		}
	}
	return best, true
}

// FastestUnderPower returns the lowest-runtime design whose average
// accelerator power stays within budgetW — the constrained-optimization
// question a designer with a thermal envelope asks of the space. ok is
// false when no design fits the budget.
func (s Space) FastestUnderPower(budgetW float64) (Point, bool) {
	var best Point
	found := false
	for _, p := range s {
		if p.Res.AvgPowerW > budgetW {
			continue
		}
		if !found || p.Res.Runtime < best.Res.Runtime {
			best = p
			found = true
		}
	}
	return best, found
}

// LowestPowerWithin returns the lowest-power design no slower than
// slowdown times the space's fastest design — the question an
// energy-constrained designer with a latency target asks. slowdown must
// be >= 1.
func (s Space) LowestPowerWithin(slowdown float64) (Point, bool) {
	if len(s) == 0 || slowdown < 1 {
		return Point{}, false
	}
	fastest := s[0].Res.Runtime
	for _, p := range s[1:] {
		if p.Res.Runtime < fastest {
			fastest = p.Res.Runtime
		}
	}
	limit := float64(fastest) * slowdown
	var best Point
	found := false
	for _, p := range s {
		if float64(p.Res.Runtime) > limit {
			continue
		}
		if !found || p.Res.AvgPowerW < best.Res.AvgPowerW {
			best = p
			found = true
		}
	}
	return best, found
}

// --- Sweep axes ---

// DefaultLanes is the Fig 3 datapath-lane sweep.
func DefaultLanes() []int { return []int{1, 2, 4, 8, 16} }

// DefaultPartitions is the Fig 3 scratchpad-partitioning sweep.
func DefaultPartitions() []int { return []int{1, 2, 4, 8, 16} }

// DefaultCacheKB is the Fig 3 cache-size sweep.
func DefaultCacheKB() []int { return []int{2, 4, 8, 16, 32, 64} }

// DefaultCachePorts is the Fig 3 cache-port sweep.
func DefaultCachePorts() []int { return []int{1, 2, 4, 8} }

// DefaultCacheLines is the Fig 3 cache-line sweep.
func DefaultCacheLines() []int { return []int{16, 32, 64} }

// DefaultCacheAssocs is the Fig 3 associativity sweep.
func DefaultCacheAssocs() []int { return []int{4, 8} }

// GridSpace returns the Fig 3 grid of base's memory system as a space over
// base: lanes x partitions for the scratchpad systems, lanes x cache size x
// line x ports x associativity for caches. The axes follow base.Mem, so a
// grid cannot walk one memory system's axes over another's design. full
// selects the whole table; the quick grid keeps the lane and size axes
// (they drive the co-design conclusions) and pins line size and
// associativity to their defaults, for tests and fast iteration. A
// non-empty fabrics list adds a fabric axis first, so each fabric's points
// stay contiguous. Walk it with Grid.
func GridSpace(base soc.Config, full bool, fabrics []soc.FabricKind) SearchSpace {
	pick := func(quick []int, all func() []int) []int {
		if full {
			return all()
		}
		return quick
	}
	axes := append(WithFabricAxis(nil, fabrics),
		SearchAxis{Name: "lanes", Values: pick([]int{1, 4, 16}, DefaultLanes)})
	if base.Mem != soc.Cache {
		axes = append(axes, SearchAxis{Name: "partitions", Values: pick([]int{1, 4, 16}, DefaultPartitions)})
	} else {
		axes = append(axes,
			SearchAxis{Name: "cache_kb", Values: pick([]int{2, 8, 32}, DefaultCacheKB)},
			SearchAxis{Name: "cache_line", Values: pick([]int{32}, DefaultCacheLines)},
			SearchAxis{Name: "cache_ports", Values: pick([]int{1, 4}, DefaultCachePorts)},
			SearchAxis{Name: "cache_assoc", Values: pick([]int{4}, DefaultCacheAssocs)},
		)
	}
	return SearchSpace{Base: base, Axes: axes}
}

// Scenario is one of the paper's four design contexts (Sec V-B).
type Scenario struct {
	Name    string
	Mem     soc.MemKind
	BusBits int
}

// Scenarios returns the Fig 9/10 design scenarios: isolated, co-designed
// DMA over a 32-bit bus, co-designed cache over 32- and 64-bit buses.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "isolated", Mem: soc.Isolated, BusBits: 32},
		{Name: "dma-32b", Mem: soc.DMA, BusBits: 32},
		{Name: "cache-32b", Mem: soc.Cache, BusBits: 32},
		{Name: "cache-64b", Mem: soc.Cache, BusBits: 64},
	}
}

// Space is the scenario's Fig 3 grid, quick or full, as a design space.
func (sc Scenario) Space(full bool) SearchSpace {
	base := soc.DefaultConfig()
	base.Mem = sc.Mem
	base.BusWidthBits = sc.BusBits
	return GridSpace(base, full, nil)
}

// --- Fig 9 microarchitectural metrics ---

// Metrics are the three Kiviat axes of Fig 9, normalized later against the
// isolated design.
type Metrics struct {
	Lanes   int
	SRAMKB  float64 // local SRAM capacity (scratchpads, or cache + local spads)
	LocalBW float64 // local memory bandwidth to the lanes, bytes per cycle
}

// PointMetrics extracts the Kiviat axes from a design point.
func PointMetrics(p Point, g *ddg.Graph) Metrics {
	m := Metrics{Lanes: p.Cfg.Lanes}
	const word = 8.0
	switch p.Cfg.Mem {
	case soc.Cache:
		m.SRAMKB = float64(p.Cfg.CacheKB)
		for _, a := range g.Trace.Arrays {
			if a.Dir == trace.Local {
				m.SRAMKB += float64(a.Bytes()) / 1024
			}
		}
		m.LocalBW = float64(p.Cfg.CachePorts) * word
	default:
		for _, a := range g.Trace.Arrays {
			m.SRAMKB += float64(a.Bytes()) / 1024
		}
		m.LocalBW = float64(p.Cfg.Partitions*p.Cfg.SpadPorts) * word
	}
	return m
}

// --- Fig 1 / Fig 10 EDP improvement ---

// Improvement quantifies what co-design buys: the isolated-optimal design
// is re-evaluated under the system scenario (its naive deployment), and
// compared against the scenario's own EDP optimum.
type Improvement struct {
	Scenario     Scenario
	IsolatedBest Point // isolated-optimal parameters evaluated in-system
	CoBest       Point // the scenario's own EDP optimum
	EDPRatio     float64
}

// EDPImprovement runs the comparison for one scenario over its quick or
// full Fig 3 grid on ev: the scenario sweep and the naive deployment are
// both evaluated there, under kernel's point keys. isolatedOpt is the EDP
// optimum of the isolated sweep. A naive deployment that has no result
// fails the call with its error, as soc.Run would.
func (ev *Evaluator) EDPImprovement(ctx context.Context, kernel string, k *soc.Compiled, isolatedOpt Point, sc Scenario, full bool) (Improvement, error) {
	space, err := ev.Sweep(ctx, kernel, k, sc.Space(full).Grid(), nil)
	if err != nil {
		return Improvement{}, err
	}
	coBest, ok := space.EDPOptimal()
	if !ok {
		return Improvement{}, fmt.Errorf("dse: scenario %s: %w", sc.Name, ErrEmptySpace)
	}

	// Deploy the isolated design naively in the same system: keep its
	// lanes/partitions, take the scenario's memory system with default
	// local-memory parameters scaled to match the isolated bandwidth.
	naive := coBest.Cfg
	naive.Lanes = isolatedOpt.Cfg.Lanes
	naive.Partitions = isolatedOpt.Cfg.Partitions
	if sc.Mem == soc.Cache {
		// An isolated designer sizes the cache to hold the whole
		// footprint and matches ports to the scratchpad bandwidth.
		in, out := k.FootprintBytes()
		need := (in + out + 1023) / 1024
		naive.CacheKB = 64
		for _, kb := range DefaultCacheKB() {
			if uint64(kb) >= need {
				naive.CacheKB = kb
				break
			}
		}
		ports := isolatedOpt.Cfg.Partitions * isolatedOpt.Cfg.SpadPorts
		naive.CachePorts = 1
		for _, p := range DefaultCachePorts() {
			if p <= ports {
				naive.CachePorts = p
			}
		}
		naive.CacheLineBytes = 32
		naive.CacheAssoc = 4
	}
	outs, err := ev.Evaluate(ctx, kernel, k, []soc.Config{naive}, nil)
	if err != nil {
		return Improvement{}, err
	}
	naiveRes := outs[0].Res
	if naiveRes == nil {
		return Improvement{}, outs[0].Err
	}
	return Improvement{
		Scenario:     sc,
		IsolatedBest: Point{Cfg: naive, Res: naiveRes},
		CoBest:       coBest,
		EDPRatio:     naiveRes.EDPJs / coBest.Res.EDPJs,
	}, nil
}
