package dse

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
)

var testGraphs = map[string]*ddg.Graph{}
var testKernels = map[string]*soc.Compiled{}

func graphOf(t testing.TB, name string) *ddg.Graph {
	t.Helper()
	if g, ok := testGraphs[name]; ok {
		return g
	}
	g := ddg.Build(machsuite.MustBuild(name))
	testGraphs[name] = g
	return g
}

func kernelOf(t testing.TB, name string) *soc.Compiled {
	t.Helper()
	if k, ok := testKernels[name]; ok {
		return k
	}
	k := soc.Compile(graphOf(t, name))
	testKernels[name] = k
	return k
}

// spadGrid walks lanes x partitions over the default config on memory
// system mem.
func spadGrid(mem soc.MemKind, lanes, partitions []int) []soc.Config {
	base := soc.DefaultConfig()
	base.Mem = mem
	return SearchSpace{Base: base, Axes: []SearchAxis{
		{Name: "lanes", Values: lanes},
		{Name: "partitions", Values: partitions},
	}}.Grid()
}

func TestSweepParallelDeterministic(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	cfgs := spadGrid(soc.DMA, []int{1, 4}, []int{1, 4})
	a, err := Sweep(context.Background(), k, cfgs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(context.Background(), k, cfgs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 {
		t.Fatalf("space size = %d", len(a))
	}
	for i := range a {
		if a[i].Res.Runtime != b[i].Res.Runtime || a[i].Res.EDPJs != b[i].Res.EDPJs {
			t.Fatalf("point %d nondeterministic across sweeps", i)
		}
	}
}

func TestParetoFrontProperties(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	cfgs := spadGrid(soc.DMA, DefaultLanes(), []int{1, 4, 16})
	space, err := Sweep(context.Background(), k, cfgs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	front := space.ParetoFront()
	if len(front) == 0 || len(front) > len(space) {
		t.Fatalf("front size %d of %d", len(front), len(space))
	}
	// No front point dominates another front point.
	for i, p := range front {
		for j, q := range front {
			if i == j {
				continue
			}
			if q.Res.Runtime <= p.Res.Runtime && q.Res.AvgPowerW <= p.Res.AvgPowerW &&
				(q.Res.Runtime < p.Res.Runtime || q.Res.AvgPowerW < p.Res.AvgPowerW) {
				t.Fatal("front contains dominated point")
			}
		}
	}
	// Sorted by runtime; power must be non-increasing along the front.
	for i := 1; i < len(front); i++ {
		if front[i].Res.Runtime < front[i-1].Res.Runtime {
			t.Fatal("front not sorted by runtime")
		}
		if front[i].Res.AvgPowerW > front[i-1].Res.AvgPowerW {
			t.Fatal("front power not monotone")
		}
	}
	// Every space point is dominated by or equal to some front point.
	for _, p := range space {
		ok := false
		for _, q := range front {
			if q.Res.Runtime <= p.Res.Runtime && q.Res.AvgPowerW <= p.Res.AvgPowerW {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatal("space point not covered by front")
		}
	}
}

func TestEDPOptimalIsMinimum(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	space, err := Sweep(context.Background(), k, spadGrid(soc.DMA, []int{1, 4, 16}, []int{1, 16}), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := space.EDPOptimal()
	if !ok {
		t.Fatal("EDPOptimal found nothing in a non-empty space")
	}
	for _, p := range space {
		if p.Res.EDPJs < best.Res.EDPJs {
			t.Fatal("EDPOptimal missed a better point")
		}
	}
}

func TestEDPOptimalEmptyReportsNotOK(t *testing.T) {
	if _, ok := (Space{}).EDPOptimal(); ok {
		t.Fatal("empty EDPOptimal claimed to find a point")
	}
	if _, ok := (Space)(nil).EDPOptimal(); ok {
		t.Fatal("nil-space EDPOptimal claimed to find a point")
	}
}

// TestFaultHeavySweepEmptySpace is the regression for the empty-space panic:
// an all-aborting fault configuration (every DMA descriptor times out with
// zero retries) legally empties the space through poisoned-point compaction,
// and the ranking path must degrade to ok=false instead of panicking.
func TestFaultHeavySweepEmptySpace(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	cfgs := spadGrid(soc.DMA, []int{1, 4}, []int{1, 4})
	for i := range cfgs {
		// A one-picosecond descriptor timeout with no retries aborts every
		// transfer before its first bus transaction can complete.
		cfgs[i].Faults = fault.Config{Seed: 1, DMATimeout: sim.Picosecond, DMARetries: 0}
	}
	space, err := Sweep(context.Background(), k, cfgs, SweepOptions{})
	if err != nil {
		t.Fatalf("all-aborting sweep must skip points, not fail: %v", err)
	}
	if len(space) != 0 {
		t.Fatalf("space has %d points, want 0 (every point aborts)", len(space))
	}
	if _, ok := space.EDPOptimal(); ok {
		t.Fatal("EDPOptimal claimed a point in an emptied space")
	}
	if len(space.ParetoFront()) != 0 {
		t.Fatal("ParetoFront of an emptied space is non-empty")
	}
	if _, ok := space.FastestUnderPower(1e3); ok {
		t.Fatal("FastestUnderPower claimed a point in an emptied space")
	}
}

// TestSweepCtxCancellation pins the context-aware sweep contract: a
// cancelled context stops the workers at the next design-point boundary and
// surfaces ctx.Err() with no partial space.
func TestSweepCtxCancellation(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	cfgs := spadGrid(soc.DMA, []int{1, 2, 4, 8}, []int{1, 2, 4, 8})

	// Already-cancelled context: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, k, cfgs, SweepOptions{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}

	// Cancel mid-flight from the progress callback.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	space, err := Sweep(ctx, k, cfgs, SweepOptions{Workers: 2, Progress: func(done, total int) {
		if done == 2 {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel returned %v, want context.Canceled", err)
	}
	if space != nil {
		t.Fatal("cancelled sweep returned a partial space")
	}

	// An expired deadline surfaces as DeadlineExceeded.
	ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := Sweep(ctx, k, cfgs, SweepOptions{Workers: 2}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired sweep returned %v, want context.DeadlineExceeded", err)
	}

	// A background context with an explicit pool matches the default sweep.
	a, err := Sweep(context.Background(), k, cfgs[:4], SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(context.Background(), k, cfgs[:4], SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two-worker sweep differs from default-pool sweep")
	}
}

// TestSweepDuplicateConfigs pins the one-point-per-config contract when
// configs repeat: the space keeps every slot in config order, the repeats
// share one simulation's result, and progress still counts every config.
func TestSweepDuplicateConfigs(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	grid := spadGrid(soc.DMA, []int{1, 4}, []int{1, 4})
	cfgs := []soc.Config{grid[0], grid[1], grid[0], grid[2], grid[1], grid[0], grid[3]}
	var last [2]int
	space, err := Sweep(context.Background(), k, cfgs, SweepOptions{Workers: 2,
		Progress: func(done, total int) { last = [2]int{done, total} }})
	if err != nil {
		t.Fatal(err)
	}
	if len(space) != len(cfgs) {
		t.Fatalf("space has %d points for %d configs", len(space), len(cfgs))
	}
	for i, p := range space {
		if p.Cfg != cfgs[i] {
			t.Fatalf("point %d out of config order", i)
		}
	}
	if space[0].Res != space[2].Res || space[0].Res != space[5].Res || space[1].Res != space[4].Res {
		t.Fatal("duplicate configs were simulated separately")
	}
	if last != [2]int{len(cfgs), len(cfgs)} {
		t.Fatalf("progress ended at %v, want (%d, %d)", last, len(cfgs), len(cfgs))
	}
}

// TestGridSkipsInfeasiblePoints checks the odometer against the point
// codec: Grid is the cross product in rank order (Unrank over 0..Size-1),
// minus exactly the points Config.Validate rejects.
func TestGridSkipsInfeasiblePoints(t *testing.T) {
	base := soc.DefaultConfig()
	base.Mem = soc.Cache
	sp := SearchSpace{Base: base, Axes: []SearchAxis{
		{Name: "lanes", Values: []int{1, 4}},
		{Name: "cache_kb", Values: []int{2, 4}},
		{Name: "cache_assoc", Values: []int{128, 3, 4}},
	}}
	var want []soc.Config
	for r := uint64(0); r < sp.Size(); r++ {
		if c := sp.Config(sp.Unrank(r)); c.Validate() == nil {
			want = append(want, c)
		}
	}
	if len(want) == 0 || uint64(len(want)) == sp.Size() {
		t.Fatalf("%d of %d points feasible: the space must mix both kinds", len(want), sp.Size())
	}
	if got := sp.Grid(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Grid kept %d points, want the %d feasible ones in rank order", len(got), len(want))
	}
}

// TestScenarioGrids checks each design scenario's quick grid: non-empty,
// feasible, and on the scenario's memory system and bus.
func TestScenarioGrids(t *testing.T) {
	for _, sc := range Scenarios() {
		cfgs := sc.Space(false).Grid()
		if len(cfgs) == 0 {
			t.Fatalf("%s: no configs", sc.Name)
		}
		for _, c := range cfgs {
			if c.Mem != sc.Mem || c.BusWidthBits != sc.BusBits {
				t.Fatalf("%s: config has wrong scenario fields", sc.Name)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
		}
	}
}

func TestPointMetrics(t *testing.T) {
	g := graphOf(t, "nw-nw")
	dmaCfg := soc.DefaultConfig()
	dmaCfg.Lanes, dmaCfg.Partitions, dmaCfg.SpadPorts = 4, 8, 1
	m := PointMetrics(Point{Cfg: dmaCfg}, g)
	if m.Lanes != 4 {
		t.Fatalf("lanes = %d", m.Lanes)
	}
	if m.SRAMKB <= 0 {
		t.Fatal("no SRAM capacity")
	}
	if m.LocalBW != 64 {
		t.Fatalf("local BW = %v, want 8 banks * 8 B", m.LocalBW)
	}

	cacheCfg := soc.DefaultConfig()
	cacheCfg.Mem = soc.Cache
	cacheCfg.CacheKB, cacheCfg.CachePorts = 8, 2
	mc := PointMetrics(Point{Cfg: cacheCfg}, g)
	// nw has Local matrices, so cache-design SRAM = cache + local spads.
	if mc.SRAMKB <= 8 {
		t.Fatalf("cache SRAM = %v, should include local arrays", mc.SRAMKB)
	}
	if mc.LocalBW != 16 {
		t.Fatalf("cache local BW = %v", mc.LocalBW)
	}
}

// TestCoDesignShrinksDesigns is the core Fig 1/Fig 9 shape: the co-designed
// EDP optimum uses no more lanes than the isolated optimum, and the
// isolated design deployed in-system has worse (or equal) EDP than the
// co-designed optimum.
func TestCoDesignShrinksDesigns(t *testing.T) {
	k := kernelOf(t, "stencil-stencil3d")
	ev := NewEvaluator(EvaluatorOptions{})
	defer ev.Close(context.Background())
	isoSpace, err := ev.Sweep(context.Background(), "stencil-stencil3d", k, Scenarios()[0].Space(false).Grid(), nil)
	if err != nil {
		t.Fatal(err)
	}
	isoBest, ok := isoSpace.EDPOptimal()
	if !ok {
		t.Fatal("isolated sweep came back empty")
	}

	imp, err := ev.EDPImprovement(context.Background(), "stencil-stencil3d", k, isoBest, Scenarios()[1], false)
	if err != nil {
		t.Fatal(err)
	}
	if imp.EDPRatio < 1 {
		t.Fatalf("co-design made EDP worse: ratio %.2f", imp.EDPRatio)
	}
	if imp.CoBest.Cfg.Lanes > imp.IsolatedBest.Cfg.Lanes {
		t.Fatalf("co-designed optimum (%d lanes) more aggressive than isolated (%d)",
			imp.CoBest.Cfg.Lanes, imp.IsolatedBest.Cfg.Lanes)
	}
	t.Logf("stencil3d DMA-32b: isolated %d lanes x %d banks -> co %d lanes x %d banks, EDP ratio %.2fx",
		imp.IsolatedBest.Cfg.Lanes, imp.IsolatedBest.Cfg.Partitions,
		imp.CoBest.Cfg.Lanes, imp.CoBest.Cfg.Partitions, imp.EDPRatio)
}

// TestIsolatedPrefersParallel pins the motivation: in isolation, more
// lanes always look at least as fast, pushing the optimizer toward
// aggressive designs.
func TestIsolatedPrefersParallel(t *testing.T) {
	k := kernelOf(t, "stencil-stencil3d")
	space, err := Sweep(context.Background(), k, spadGrid(soc.Isolated, []int{1, 16}, []int{16}), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var t1, t16 sim.Tick
	for _, p := range space {
		if p.Cfg.Lanes == 1 {
			t1 = p.Res.Runtime
		} else {
			t16 = p.Res.Runtime
		}
	}
	if t16 >= t1 {
		t.Fatalf("16 lanes (%v) not faster than 1 (%v) in isolation", t16, t1)
	}
}

func TestFastestUnderPower(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	space, err := Sweep(context.Background(), k, spadGrid(soc.DMA, DefaultLanes(), []int{1, 4, 16}), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A generous budget admits the global fastest point.
	fastest, ok := space.FastestUnderPower(1e3)
	if !ok {
		t.Fatal("no design under an unlimited budget")
	}
	for _, p := range space {
		if p.Res.Runtime < fastest.Res.Runtime {
			t.Fatal("missed a faster design")
		}
	}
	// A tight budget forces a leaner, slower design.
	tight, ok := space.FastestUnderPower(fastest.Res.AvgPowerW / 2)
	if !ok {
		t.Skip("space has no design under half the fastest design's power")
	}
	if tight.Res.AvgPowerW > fastest.Res.AvgPowerW/2 {
		t.Fatal("budget violated")
	}
	if tight.Res.Runtime < fastest.Res.Runtime {
		t.Fatal("tight-budget design cannot be faster than the unconstrained optimum")
	}
	// An impossible budget returns no design.
	if _, ok := space.FastestUnderPower(1e-9); ok {
		t.Fatal("impossible budget satisfied")
	}
}

func TestLowestPowerWithin(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	space, err := Sweep(context.Background(), k, spadGrid(soc.DMA, DefaultLanes(), []int{1, 4, 16}), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p10, ok := space.LowestPowerWithin(1.10)
	if !ok {
		t.Fatal("no design within 10% of fastest")
	}
	p2x, ok := space.LowestPowerWithin(2)
	if !ok {
		t.Fatal("no design within 2x of fastest")
	}
	// Loosening the latency target can only lower (or keep) the power.
	if p2x.Res.AvgPowerW > p10.Res.AvgPowerW {
		t.Fatalf("2x target picked higher power (%v) than 1.1x (%v)",
			p2x.Res.AvgPowerW, p10.Res.AvgPowerW)
	}
	if _, ok := space.LowestPowerWithin(0.5); ok {
		t.Fatal("sub-1 slowdown accepted")
	}
}

// TestSweepSkipsPoisonedPoints pins the robustness contract: a design point
// whose run is aborted (here by an unmeetable watchdog tick budget) is
// dropped from the space instead of failing the whole sweep, while a
// genuinely invalid config still fails it.
func TestSweepSkipsPoisonedPoints(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	cfgs := spadGrid(soc.DMA, []int{1, 4}, []int{1, 4})
	poisoned := 0
	for i := range cfgs {
		if i%2 == 1 {
			cfgs[i].WatchdogTicks = 10 // ten picoseconds: guaranteed abort
			poisoned++
		}
	}
	space, err := Sweep(context.Background(), k, cfgs, SweepOptions{})
	if err != nil {
		t.Fatalf("sweep failed instead of skipping: %v", err)
	}
	if len(space) != len(cfgs)-poisoned {
		t.Fatalf("space has %d points, want %d (= %d configs - %d poisoned)",
			len(space), len(cfgs)-poisoned, len(cfgs), poisoned)
	}
	for _, p := range space {
		if p.Res == nil {
			t.Fatalf("poisoned point survived compaction")
		}
		if p.Cfg.WatchdogTicks != 0 {
			t.Fatalf("a poisoned config produced a result")
		}
	}
	// The survivors still rank.
	best, ok := space.EDPOptimal()
	if !ok || best.Res == nil {
		t.Fatalf("EDPOptimal on the compacted space")
	}

	// A config error is not a poisoned point: it must still fail the sweep.
	bad := cfgs[:1]
	bad[0].Lanes = 0
	if _, err := Sweep(context.Background(), k, bad, SweepOptions{}); err == nil {
		t.Fatalf("sweep accepted an invalid config")
	}
}
