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
	"sort"

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
	outs, err := ev.Evaluate(ctx, kernel, k, cfgs, opts.Progress)
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
//
// One sort plus a min-power sweep over the sorted order, O(n log n): after
// sorting by (runtime, power), any dominator of a point precedes it, so a
// point is dominated iff some earlier point has strictly lower power, or
// equal power with strictly lower runtime (the duplicate-coordinates case,
// where exact ties survive together).
func (s Space) ParetoFront() Space {
	if len(s) == 0 {
		return nil
	}
	order := make([]int, len(s))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		p, q := s[order[a]].Res, s[order[b]].Res
		if p.Runtime != q.Runtime {
			return p.Runtime < q.Runtime
		}
		if p.AvgPowerW != q.AvgPowerW {
			return p.AvgPowerW < q.AvgPowerW
		}
		return order[a] < order[b]
	})
	var front Space
	minPower := s[order[0]].Res.AvgPowerW
	minPowerRuntime := s[order[0]].Res.Runtime
	for _, idx := range order {
		p := s[idx].Res
		dominated := minPower < p.AvgPowerW ||
			(minPower == p.AvgPowerW && minPowerRuntime < p.Runtime)
		if !dominated {
			front = append(front, s[idx])
		}
		if p.AvgPowerW < minPower {
			minPower, minPowerRuntime = p.AvgPowerW, p.Runtime
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

// SpadConfigs enumerates lanes x partitions for Isolated or DMA designs.
func SpadConfigs(base soc.Config, mem soc.MemKind, lanes, partitions []int) []soc.Config {
	var out []soc.Config
	for _, l := range lanes {
		for _, p := range partitions {
			c := base
			c.Mem = mem
			c.Lanes = l
			c.Partitions = p
			out = append(out, c)
		}
	}
	return out
}

// CacheConfigs enumerates cache design points.
func CacheConfigs(base soc.Config, lanes, sizesKB, lines, ports, assocs []int) []soc.Config {
	var out []soc.Config
	for _, l := range lanes {
		for _, kb := range sizesKB {
			for _, ln := range lines {
				for _, pt := range ports {
					for _, as := range assocs {
						c := base
						c.Mem = soc.Cache
						c.Lanes = l
						c.CacheKB = kb
						c.CacheLineBytes = ln
						c.CachePorts = pt
						c.CacheAssoc = as
						if c.Validate() != nil {
							continue // e.g. 2KB/64B/8-way has too few sets
						}
						out = append(out, c)
					}
				}
			}
		}
	}
	return out
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

// SweepAxes sizes a scenario sweep. Quick trims the cache cross-product
// for test-speed; Full is the paper's Fig 3 table.
type SweepAxes struct {
	Lanes      []int
	Partitions []int
	CacheKB    []int
	CacheLines []int
	CachePorts []int
	CacheAssoc []int
	// Fabrics, when non-empty, crosses the grid with interconnect
	// topologies (the fabric axis). Empty keeps the scenario's default
	// fabric — the round-robin bus — so legacy sweeps are unchanged.
	Fabrics []soc.FabricKind
}

// FullAxes is the complete Fig 3 sweep.
func FullAxes() SweepAxes {
	return SweepAxes{
		Lanes:      DefaultLanes(),
		Partitions: DefaultPartitions(),
		CacheKB:    DefaultCacheKB(),
		CacheLines: DefaultCacheLines(),
		CachePorts: DefaultCachePorts(),
		CacheAssoc: DefaultCacheAssocs(),
	}
}

// QuickAxes is a pruned sweep for tests and fast iteration: the lane
// and size axes are kept (they drive the co-design conclusions), line size
// and associativity pin to their defaults.
func QuickAxes() SweepAxes {
	return SweepAxes{
		Lanes:      []int{1, 4, 16},
		Partitions: []int{1, 4, 16},
		CacheKB:    []int{2, 8, 32},
		CacheLines: []int{32},
		CachePorts: []int{1, 4},
		CacheAssoc: []int{4},
	}
}

// ScenarioConfigs builds the config list for one scenario.
func ScenarioConfigs(sc Scenario, opt SweepAxes) []soc.Config {
	base := soc.DefaultConfig()
	base.BusWidthBits = sc.BusBits
	return GridConfigs(base, sc.Mem, opt)
}

// GridConfigs expands one memory system's grid over base: lanes x
// partitions for the scratchpad systems, or the cache cross product (with
// impossible geometries pruned, as in CacheConfigs) for caches, then
// crossed with the fabric axis.
func GridConfigs(base soc.Config, mem soc.MemKind, axes SweepAxes) []soc.Config {
	var cfgs []soc.Config
	if mem == soc.Cache {
		cfgs = CacheConfigs(base, axes.Lanes, axes.CacheKB, axes.CacheLines,
			axes.CachePorts, axes.CacheAssoc)
	} else {
		cfgs = SpadConfigs(base, mem, axes.Lanes, axes.Partitions)
	}
	return WithFabrics(cfgs, axes.Fabrics)
}

// WithFabrics crosses a config list with interconnect topologies: each
// config is replicated once per kind, in kind order then config order (so
// per-fabric slices of the result stay contiguous). An empty kind list
// returns cfgs untouched — the round-robin bus baseline.
func WithFabrics(cfgs []soc.Config, kinds []soc.FabricKind) []soc.Config {
	if len(kinds) == 0 {
		return cfgs
	}
	out := make([]soc.Config, 0, len(cfgs)*len(kinds))
	for _, k := range kinds {
		for _, c := range cfgs {
			c.Fabric.Kind = k
			out = append(out, c)
		}
	}
	return out
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

// EDPImprovement runs the comparison for one scenario. isolatedOpt is the
// EDP optimum of the isolated sweep.
func EDPImprovement(k *soc.Compiled, isolatedOpt Point, sc Scenario, opt SweepAxes) (Improvement, error) {
	cfgs := ScenarioConfigs(sc, opt)
	space, err := Sweep(context.Background(), k, cfgs, SweepOptions{})
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
	naiveRes, err := soc.Run(k, naive)
	if err != nil {
		return Improvement{}, err
	}
	imp := Improvement{
		Scenario:     sc,
		IsolatedBest: Point{Cfg: naive, Res: naiveRes},
		CoBest:       coBest,
		EDPRatio:     naiveRes.EDPJs / coBest.Res.EDPJs,
	}
	return imp, nil
}
