package core

import (
	"testing"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/mem/spad"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/trace"
)

func accelClock() sim.Clock { return sim.NewClockHz(100e6) }

func cfgLanes(lanes int) Config {
	return Config{Lanes: lanes, Clock: accelClock(), Latencies: DefaultOpLatencies()}
}

// runIdeal executes graph g on an ideal memory and returns the result.
func runIdeal(t *testing.T, g *ddg.Graph, lanes int) *Result {
	t.Helper()
	eng := sim.NewEngine()
	d := NewDatapath(eng, g, cfgLanes(lanes), IdealMem{})
	var res *Result
	d.Start(func(r *Result) { res = r })
	eng.Run()
	if res == nil {
		t.Fatal("datapath never finished")
	}
	return res
}

// parallelTrace builds iters independent iterations of `chain` dependent
// single-cycle integer adds each.
func parallelTrace(iters, chain int) *ddg.Graph {
	b := trace.NewBuilder("par")
	for i := 0; i < iters; i++ {
		b.BeginIter()
		v := b.ConstI(int64(i))
		for c := 0; c < chain; c++ {
			v = b.IAdd(v, b.ConstI(1))
		}
	}
	return ddg.Build(b.Finish())
}

func TestSingleLaneSerializesIterations(t *testing.T) {
	g := parallelTrace(8, 4)
	res := runIdeal(t, g, 1)
	// 8 iterations x 4 dependent adds, one lane, one op/cycle: >= 32
	// cycles of issue plus the final op's visibility.
	if res.Stats.Cycles < 32 {
		t.Fatalf("cycles = %d, want >= 32", res.Stats.Cycles)
	}
	if res.Stats.OpsIssued[trace.OpIAdd] != 32 {
		t.Fatalf("adds issued = %d", res.Stats.OpsIssued[trace.OpIAdd])
	}
}

func TestParallelismScales(t *testing.T) {
	g := parallelTrace(16, 8)
	c1 := runIdeal(t, g, 1).Stats.Cycles
	c4 := runIdeal(t, g, 4).Stats.Cycles
	c16 := runIdeal(t, g, 16).Stats.Cycles
	if c4 >= c1 || c16 >= c4 {
		t.Fatalf("no speedup: lanes 1/4/16 -> %d/%d/%d cycles", c1, c4, c16)
	}
	// Near-linear at the wave level: 16 lanes should be ~4x faster than 4.
	if float64(c1)/float64(c16) < 8 {
		t.Fatalf("16-lane speedup only %.1fx", float64(c1)/float64(c16))
	}
}

func TestLatencyRespected(t *testing.T) {
	b := trace.NewBuilder("lat")
	x := b.FMul(b.ConstF(2), b.ConstF(3)) // 4 cycles
	y := b.FMul(x, x)                     // depends on x
	_ = y
	g := ddg.Build(b.Finish())
	res := runIdeal(t, g, 1)
	// fmul(4) then dependent fmul(4): second issues at cycle 4, visible
	// at 8.
	if res.Stats.Cycles < 8 {
		t.Fatalf("cycles = %d, want >= 8", res.Stats.Cycles)
	}
}

func TestPipelinedIndependentOps(t *testing.T) {
	// Independent multi-cycle ops in one iteration issue back-to-back
	// (pipelined FUs): 8 fmuls should take ~8+4 cycles on 1 lane, not 32.
	b := trace.NewBuilder("pipe")
	b.BeginIter()
	for i := 0; i < 8; i++ {
		b.FMul(b.ConstF(1), b.ConstF(2))
	}
	g := ddg.Build(b.Finish())
	res := runIdeal(t, g, 1)
	if res.Stats.Cycles > 13 {
		t.Fatalf("cycles = %d, want pipelined ~12", res.Stats.Cycles)
	}
}

func TestCrossIterationDependence(t *testing.T) {
	// A serial reduction: even with 16 lanes, the dependence chain limits
	// speedup (the nw-style serial workload of the paper).
	b := trace.NewBuilder("serial")
	acc := b.ConstI(0)
	for i := 0; i < 32; i++ {
		b.BeginIter()
		acc = b.IAdd(acc, b.ConstI(1))
	}
	g := ddg.Build(b.Finish())
	c1 := runIdeal(t, g, 1).Stats.Cycles
	c16 := runIdeal(t, g, 16).Stats.Cycles
	if c16 < 32 {
		t.Fatalf("16 lanes beat the dependence chain: %d cycles", c16)
	}
	if c1 < c16 {
		t.Fatalf("serial chain slower on 1 lane (%d) than 16 (%d)", c1, c16)
	}
}

func TestWaveBarrier(t *testing.T) {
	// 4 iterations on 2 lanes = 2 waves. Iteration 0 is long (chain of 8),
	// iteration 1 is short. The barrier forces wave 2 (iterations 2,3) to
	// wait for iteration 0 even though lane 1 went idle early.
	b := trace.NewBuilder("barrier")
	b.BeginIter()
	v := b.ConstI(0)
	for i := 0; i < 8; i++ {
		v = b.IAdd(v, b.ConstI(1))
	}
	b.BeginIter()
	b.IAdd(b.ConstI(1), b.ConstI(1))
	b.BeginIter()
	b.IAdd(b.ConstI(1), b.ConstI(1))
	b.BeginIter()
	b.IAdd(b.ConstI(1), b.ConstI(1))
	g := ddg.Build(b.Finish())
	res := runIdeal(t, g, 2)
	if res.Stats.BarrierStalls == 0 {
		t.Fatal("expected barrier stalls with unbalanced waves")
	}
	// All ops executed exactly once.
	if res.Stats.OpsIssued[trace.OpIAdd] != 11 {
		t.Fatalf("adds = %d, want 11", res.Stats.OpsIssued[trace.OpIAdd])
	}
}

func TestPreludeRunsFirst(t *testing.T) {
	b := trace.NewBuilder("prelude")
	a := b.Alloc("a", trace.F64, 8, trace.Local)
	b.Store(a, 0, b.ConstF(1)) // prelude store
	for i := 0; i < 4; i++ {
		b.BeginIter()
		b.Load(a, 0) // every iteration reads what the prelude wrote
	}
	g := ddg.Build(b.Finish())
	arrs := g.Trace.Arrays
	eng := sim.NewEngine()
	sp := spad.New(spad.Config{Partitions: 1, Ports: 4}, arrs)
	d := NewDatapath(eng, g, cfgLanes(4), NewSpadMem(sp))
	var res *Result
	d.Start(func(r *Result) { res = r })
	eng.Run()
	if res == nil {
		t.Fatal("never finished")
	}
	if res.Stats.OpsIssued[trace.OpLoad] != 4 || res.Stats.OpsIssued[trace.OpStore] != 1 {
		t.Fatalf("ops = %+v", res.Stats.OpsIssued)
	}
}

func TestSpadPortContentionSlowsDown(t *testing.T) {
	// 16 iterations each loading 2 elements: with 1 partition x 1 port,
	// loads serialize; with 4 partitions they do not.
	mk := func() *ddg.Graph {
		b := trace.NewBuilder("ports")
		a := b.Alloc("a", trace.F64, 64, trace.In)
		for i := 0; i < 16; i++ {
			b.BeginIter()
			x := b.Load(a, i)
			y := b.Load(a, i+16)
			b.FAdd(x, y)
		}
		return ddg.Build(b.Finish())
	}
	run := func(parts int) uint64 {
		g := mk()
		eng := sim.NewEngine()
		sp := spad.New(spad.Config{Partitions: parts, Ports: 1}, g.Trace.Arrays)
		d := NewDatapath(eng, g, cfgLanes(8), NewSpadMem(sp))
		var res *Result
		d.Start(func(r *Result) { res = r })
		eng.Run()
		return res.Stats.Cycles
	}
	narrow := run(1)
	wide := run(8)
	if wide >= narrow {
		t.Fatalf("partitioning did not help: %d vs %d cycles", wide, narrow)
	}
}

func TestReadyBitsStallUntilArrival(t *testing.T) {
	b := trace.NewBuilder("ready")
	a := b.Alloc("a", trace.F64, 8, trace.In)
	b.BeginIter()
	b.Load(a, 0)
	g := ddg.Build(b.Finish())
	eng := sim.NewEngine()
	sp := spad.New(spad.DefaultConfig(), g.Trace.Arrays)
	sp.EnableReadyBits(32, g.Trace.Arrays)
	d := NewDatapath(eng, g, cfgLanes(1), NewSpadMem(sp))
	var res *Result
	d.Start(func(r *Result) { res = r })
	// Data arrives at 5us; the load must wait for it.
	eng.Schedule(5*sim.Microsecond, func() {
		sp.MarkArrived(0, 0, 32)
		d.Wake()
	})
	eng.Run()
	if res == nil {
		t.Fatal("never finished")
	}
	if res.End < 5*sim.Microsecond {
		t.Fatalf("finished at %v, before data arrived", res.End)
	}
}

func TestComputeIntervalsCoverActivity(t *testing.T) {
	g := parallelTrace(8, 4)
	res := runIdeal(t, g, 2)
	if len(res.ComputeIntervals) == 0 {
		t.Fatal("no compute intervals recorded")
	}
	first := res.ComputeIntervals[0]
	last := res.ComputeIntervals[len(res.ComputeIntervals)-1]
	if first.Start < uint64(res.Start) || last.End > uint64(res.End+accelClock().Period) {
		t.Fatalf("intervals [%v,%v] outside run [%v,%v]",
			first.Start, last.End, res.Start, res.End)
	}
}

func TestStatsActiveCyclesPositive(t *testing.T) {
	g := parallelTrace(4, 2)
	res := runIdeal(t, g, 2)
	if res.Stats.ActiveCycles == 0 || res.Stats.ActiveCycles > res.Stats.Cycles+1 {
		t.Fatalf("active=%d total=%d", res.Stats.ActiveCycles, res.Stats.Cycles)
	}
}

func TestEmptyGraphFinishes(t *testing.T) {
	b := trace.NewBuilder("empty")
	g := ddg.Build(b.Finish())
	res := runIdeal(t, g, 4)
	if res.Stats.Cycles != 0 {
		t.Fatalf("empty graph took %d cycles", res.Stats.Cycles)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	g := parallelTrace(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero lanes did not panic")
		}
	}()
	NewDatapath(sim.NewEngine(), g, Config{Lanes: 0, Clock: accelClock()}, IdealMem{})
}

func TestDoubleStartPanics(t *testing.T) {
	g := parallelTrace(1, 1)
	eng := sim.NewEngine()
	d := NewDatapath(eng, g, cfgLanes(1), IdealMem{})
	d.Start(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double start did not panic")
		}
	}()
	d.Start(nil)
}
