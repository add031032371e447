package soc

import (
	"math/rand"
	"testing"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/trace"
)

// streamKernel builds a simple streaming kernel: out[i] = 2*in[i] + 1 over
// n doubles, one iteration per element.
func streamKernel(n int) *ddg.Graph {
	b := trace.NewBuilder("stream")
	in := b.Alloc("in", trace.F64, n, trace.In)
	out := b.Alloc("out", trace.F64, n, trace.Out)
	for i := 0; i < n; i++ {
		b.SetF64(in, i, float64(i))
	}
	two, one := b.ConstF(2), b.ConstF(1)
	for i := 0; i < n; i++ {
		b.BeginIter()
		v := b.Load(in, i)
		b.Store(out, i, b.FAdd(b.FMul(v, two), one))
	}
	return ddg.Build(b.Finish())
}

func mustRun(t *testing.T, g *ddg.Graph, cfg Config) *RunResult {
	t.Helper()
	r, err := Run(Compile(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIsolatedRun(t *testing.T) {
	g := streamKernel(256)
	cfg := DefaultConfig()
	cfg.Mem = Isolated
	r := mustRun(t, g, cfg)
	if r.Runtime == 0 || r.Cycles == 0 {
		t.Fatal("no runtime recorded")
	}
	// Isolated: no data movement at all.
	if r.Breakdown.FlushOnly != 0 || r.Breakdown.DMAFlush != 0 || r.Breakdown.ComputeDMA != 0 {
		t.Fatalf("isolated run has movement: %+v", r.Breakdown)
	}
	if r.Bus.Transactions != 0 {
		t.Fatal("isolated run touched the bus")
	}
	if r.Energy.Total() <= 0 || r.EDPJs <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestDMABaselineRun(t *testing.T) {
	g := streamKernel(256)
	cfg := DefaultConfig()
	cfg.PipelinedDMA = false
	cfg.DMATriggered = false
	r := mustRun(t, g, cfg)
	b := r.Breakdown
	if b.FlushOnly == 0 {
		t.Fatal("baseline DMA should show flush-only time")
	}
	if b.DMAFlush == 0 {
		t.Fatal("baseline DMA should show DMA time")
	}
	if b.ComputeOnly == 0 {
		t.Fatal("no compute-only time")
	}
	// Baseline never overlaps compute with movement.
	if b.ComputeDMA != 0 {
		t.Fatalf("baseline overlapped compute with DMA: %+v", b)
	}
	if b.Total() != r.Runtime {
		t.Fatalf("breakdown %v != runtime %v", b.Total(), r.Runtime)
	}
	// 256 doubles in + 256 out moved by DMA.
	if r.DMA.BytesMoved != 4096 {
		t.Fatalf("DMA moved %d bytes", r.DMA.BytesMoved)
	}
}

func TestDMAOptimizationsImproveRuntime(t *testing.T) {
	// 2048 doubles = 16 KB per array: four pipelined chunks, so the flush
	// of chunks 1-3 hides under earlier transfers.
	g := streamKernel(2048)
	base := DefaultConfig()
	base.PipelinedDMA = false
	base.DMATriggered = false
	r0 := mustRun(t, g, base)

	pipe := base
	pipe.PipelinedDMA = true
	r1 := mustRun(t, g, pipe)

	trig := pipe
	trig.DMATriggered = true
	r2 := mustRun(t, g, trig)

	if r1.Runtime >= r0.Runtime {
		t.Fatalf("pipelined DMA (%v) not faster than baseline (%v)", r1.Runtime, r0.Runtime)
	}
	if r2.Runtime >= r1.Runtime {
		t.Fatalf("triggered compute (%v) not faster than pipelined (%v)", r2.Runtime, r1.Runtime)
	}
	// Pipelining nearly eliminates flush-only time (Fig 6a).
	if r1.Breakdown.FlushOnly > r0.Breakdown.FlushOnly/4 {
		t.Fatalf("pipelining left %v flush-only (baseline %v)",
			r1.Breakdown.FlushOnly, r0.Breakdown.FlushOnly)
	}
	// A streaming kernel overlaps compute with DMA under ready bits.
	if r2.Breakdown.ComputeDMA == 0 {
		t.Fatal("triggered compute shows no compute/DMA overlap")
	}
}

func TestCacheRun(t *testing.T) {
	g := streamKernel(256)
	cfg := DefaultConfig()
	cfg.Mem = Cache
	r := mustRun(t, g, cfg)
	if r.Cache.Accesses == 0 {
		t.Fatal("cache never accessed")
	}
	if r.Cache.Misses == 0 {
		t.Fatal("no cold misses?")
	}
	// Inputs were dirty in the CPU cache: fills must be cache-to-cache.
	if r.Cache.C2CFills == 0 {
		t.Fatal("no coherent cache-to-cache fills")
	}
	if r.TLB.Misses == 0 {
		t.Fatal("no TLB misses on first touch")
	}
	// No flush/DMA phases in cache mode.
	if r.Breakdown.FlushOnly != 0 || r.Breakdown.DMAFlush != 0 {
		t.Fatalf("cache run shows DMA phases: %+v", r.Breakdown)
	}
	if r.Energy.MemDynamic <= 0 {
		t.Fatal("cache dynamic energy missing")
	}
}

func TestParallelismReducesComputeTime(t *testing.T) {
	g := streamKernel(512)
	cfg := DefaultConfig()
	cfg.Lanes, cfg.Partitions = 1, 1
	slow := mustRun(t, g, cfg)
	cfg.Lanes, cfg.Partitions = 8, 8
	fast := mustRun(t, g, cfg)
	if fast.Runtime >= slow.Runtime {
		t.Fatalf("8 lanes (%v) not faster than 1 (%v)", fast.Runtime, slow.Runtime)
	}
}

func TestWiderBusFasterDMA(t *testing.T) {
	g := streamKernel(512)
	cfg := DefaultConfig()
	cfg.BusWidthBits = 32
	narrow := mustRun(t, g, cfg)
	cfg.BusWidthBits = 64
	wide := mustRun(t, g, cfg)
	if wide.Runtime >= narrow.Runtime {
		t.Fatalf("64-bit bus (%v) not faster than 32-bit (%v)", wide.Runtime, narrow.Runtime)
	}
}

func TestContentionSlowsAccelerator(t *testing.T) {
	g := streamKernel(512)
	cfg := DefaultConfig()
	quiet := mustRun(t, g, cfg)
	cfg.Traffic = &TrafficConfig{Period: 300 * sim.Nanosecond, Bytes: 256}
	loaded := mustRun(t, g, cfg)
	if loaded.Runtime <= quiet.Runtime {
		t.Fatalf("contention did not slow the run: %v vs %v", loaded.Runtime, quiet.Runtime)
	}
}

func TestIsolatedFasterThanCoDesigned(t *testing.T) {
	// The core motivation: isolated designs ignore data movement, so the
	// same design point must look faster in isolation than in-system.
	g := streamKernel(256)
	cfg := DefaultConfig()
	cfg.Mem = Isolated
	iso := mustRun(t, g, cfg)
	cfg.Mem = DMA
	dmaRun := mustRun(t, g, cfg)
	if iso.Runtime >= dmaRun.Runtime {
		t.Fatalf("isolated (%v) not faster than co-designed (%v)", iso.Runtime, dmaRun.Runtime)
	}
}

func TestEnergyComponentsPositive(t *testing.T) {
	g := streamKernel(128)
	for _, kind := range []MemKind{Isolated, DMA, Cache} {
		cfg := DefaultConfig()
		cfg.Mem = kind
		r := mustRun(t, g, cfg)
		if r.Energy.FUDynamic <= 0 || r.Energy.FULeak <= 0 || r.Energy.MemLeak <= 0 {
			t.Fatalf("%v: energy breakdown %+v", kind, r.Energy)
		}
		if kind != Isolated && r.TransferJ <= 0 {
			t.Fatalf("%v: no transfer energy", kind)
		}
		if kind == Isolated && r.TransferJ != 0 {
			t.Fatalf("%v: isolated run reports transfer energy", kind)
		}
		if r.AvgPowerW <= 0 {
			t.Fatalf("%v: power %v", kind, r.AvgPowerW)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	g := streamKernel(16)
	cfg := DefaultConfig()
	cfg.Lanes = 0
	if _, err := Run(Compile(g), cfg); err == nil {
		t.Fatal("zero lanes accepted")
	}
	cfg = DefaultConfig()
	cfg.Mem = Cache
	cfg.CacheLineBytes = 48
	if _, err := Run(Compile(g), cfg); err == nil {
		t.Fatal("bad cache line accepted")
	}
}

func TestMemKindString(t *testing.T) {
	if Isolated.String() != "isolated" || DMA.String() != "dma" || Cache.String() != "cache" {
		t.Fatal("MemKind names wrong")
	}
	if MemKind(9).String() != "MemKind(9)" {
		t.Fatal("unknown MemKind name wrong")
	}
}

func TestDeterminism(t *testing.T) {
	g := streamKernel(256)
	for _, kind := range []MemKind{DMA, Cache} {
		cfg := DefaultConfig()
		cfg.Mem = kind
		a := mustRun(t, g, cfg)
		b := mustRun(t, g, cfg)
		if a.Runtime != b.Runtime || a.Energy.Total() != b.Energy.Total() {
			t.Fatalf("%v: nondeterministic results %v/%v", kind, a.Runtime, b.Runtime)
		}
	}
}

func TestIdealMode(t *testing.T) {
	g := streamKernel(256)
	cfg := DefaultConfig()
	cfg.Mem = Ideal
	ideal := mustRun(t, g, cfg)
	cfg.Mem = Isolated
	iso := mustRun(t, g, cfg)
	// Ideal has no port limits: at least as fast as the real scratchpad.
	if ideal.Runtime > iso.Runtime {
		t.Fatalf("ideal (%v) slower than isolated (%v)", ideal.Runtime, iso.Runtime)
	}
	if ideal.Bus.Transactions != 0 {
		t.Fatal("ideal mode touched the bus")
	}
}

func TestDecompose(t *testing.T) {
	flush := []obs.Interval{{Start: 0, End: 100}}
	dmaIv := []obs.Interval{{Start: 80, End: 200}}
	comp := []obs.Interval{{Start: 150, End: 300}}
	b := decompose(320, flush, dmaIv, comp)
	if b.FlushOnly != 80 { // [0,80)
		t.Fatalf("flush-only = %v", b.FlushOnly)
	}
	if b.DMAFlush != 70 { // [80,150)
		t.Fatalf("dma = %v", b.DMAFlush)
	}
	if b.ComputeDMA != 50 { // [150,200)
		t.Fatalf("overlap = %v", b.ComputeDMA)
	}
	if b.ComputeOnly != 100 { // [200,300)
		t.Fatalf("compute-only = %v", b.ComputeOnly)
	}
	if b.Idle != 20 { // [300,320)
		t.Fatalf("idle = %v", b.Idle)
	}
	if b.Total() != 320 {
		t.Fatalf("total = %v", b.Total())
	}
}

func TestDecomposeEmpty(t *testing.T) {
	b := decompose(100, nil, nil, nil)
	if b.Idle != 100 || b.Total() != 100 {
		t.Fatalf("empty decompose = %+v", b)
	}
}

// TestBusBandwidthConservation: the bus can never move bytes faster than
// its width allows over the run.
func TestBusBandwidthConservation(t *testing.T) {
	g := streamKernel(2048)
	for _, bits := range []int{32, 64} {
		cfg := DefaultConfig()
		cfg.BusWidthBits = bits
		r := mustRun(t, g, cfg)
		peakBytes := float64(bits/8) * (r.Seconds() * cfg.BusHz)
		if float64(r.Bus.BytesMoved) > peakBytes {
			t.Fatalf("%d-bit bus moved %d bytes, peak %d",
				bits, r.Bus.BytesMoved, uint64(peakBytes))
		}
	}
}

// TestScheduleRecordingThroughSoc checks the RecordSchedule plumbing.
func TestScheduleRecordingThroughSoc(t *testing.T) {
	g := streamKernel(64)
	cfg := DefaultConfig()
	cfg.RecordSchedule = true
	r := mustRun(t, g, cfg)
	if len(r.Schedule) != g.NumNodes() {
		t.Fatalf("schedule entries = %d, nodes = %d", len(r.Schedule), g.NumNodes())
	}
	cfg.RecordSchedule = false
	r2 := mustRun(t, g, cfg)
	if r2.Schedule != nil {
		t.Fatal("schedule recorded without the flag")
	}
}

// TestRandomConfigsComplete fuzzes valid configurations over a small
// kernel: every run must terminate with a consistent breakdown.
func TestRandomConfigsComplete(t *testing.T) {
	g := streamKernel(192)
	rng := rand.New(rand.NewSource(11))
	lanes := []int{1, 2, 4, 8, 16}
	parts := []int{1, 2, 4, 8, 16}
	kbs := []int{2, 4, 8, 16, 32, 64}
	lines := []int{16, 32, 64}
	ports := []int{1, 2, 4, 8}
	assocs := []int{4, 8}
	for i := 0; i < 60; i++ {
		cfg := DefaultConfig()
		cfg.Mem = []MemKind{Isolated, DMA, Cache, Ideal}[rng.Intn(4)]
		cfg.Lanes = lanes[rng.Intn(len(lanes))]
		cfg.Partitions = parts[rng.Intn(len(parts))]
		cfg.PipelinedDMA = rng.Intn(2) == 0
		cfg.DMATriggered = rng.Intn(2) == 0
		cfg.NoDMAInterleave = rng.Intn(2) == 0
		cfg.CoherentDMA = rng.Intn(4) == 0
		cfg.NoWaveBarrier = rng.Intn(4) == 0
		cfg.CacheKB = kbs[rng.Intn(len(kbs))]
		cfg.CacheLineBytes = lines[rng.Intn(len(lines))]
		cfg.CachePorts = ports[rng.Intn(len(ports))]
		cfg.CacheAssoc = assocs[rng.Intn(len(assocs))]
		cfg.Prefetch = rng.Intn(2) == 0
		cfg.BusWidthBits = []int{32, 64}[rng.Intn(2)]
		if cfg.Validate() != nil {
			continue // degenerate cache geometry
		}
		r, err := Run(Compile(g), cfg)
		if err != nil {
			t.Fatalf("config %d (%+v): %v", i, cfg, err)
		}
		if r.Breakdown.Total() != r.Runtime {
			t.Fatalf("config %d: breakdown %v != runtime %v", i, r.Breakdown.Total(), r.Runtime)
		}
		var issued uint64
		for _, c := range r.Datapath.OpsIssued {
			issued += c
		}
		if issued != uint64(g.NumNodes()) {
			t.Fatalf("config %d: issued %d of %d ops", i, issued, g.NumNodes())
		}
	}
}

func TestAreaModel(t *testing.T) {
	g := streamKernel(512)
	cfg := DefaultConfig()
	small := mustRun(t, g, cfg)
	cfg.Lanes, cfg.Partitions = 16, 16
	big := mustRun(t, g, cfg)
	if big.AreaMM2 <= small.AreaMM2 {
		t.Fatalf("16-lane design area (%v) not above 4-lane (%v)", big.AreaMM2, small.AreaMM2)
	}
	// Cache designs with a small cache undercut full-footprint scratchpads.
	cc := DefaultConfig()
	cc.Mem = Cache
	cc.CacheKB = 2
	cacheRes := mustRun(t, g, cc)
	if cacheRes.AreaMM2 >= small.AreaMM2 {
		t.Fatalf("2KB cache area (%v) should undercut 8KB scratchpads (%v)",
			cacheRes.AreaMM2, small.AreaMM2)
	}
	if small.AreaMM2 <= 0 {
		t.Fatal("no area accounted")
	}
}

func TestLaneUtilizationStats(t *testing.T) {
	g := streamKernel(512)
	cfg := DefaultConfig()
	cfg.Lanes, cfg.Partitions = 4, 4
	r := mustRun(t, g, cfg)
	util := r.Datapath.LaneUtilization()
	if len(util) != 4 {
		t.Fatalf("utilization entries = %d", len(util))
	}
	var total uint64
	for _, n := range r.Datapath.LaneOps {
		total += n
	}
	if total != uint64(g.NumNodes()) {
		t.Fatalf("lane ops sum %d != nodes %d", total, g.NumNodes())
	}
	// A balanced streaming kernel loads lanes evenly.
	for i := 1; i < 4; i++ {
		if diff := float64(r.Datapath.LaneOps[i]) - float64(r.Datapath.LaneOps[0]); diff > 10 || diff < -10 {
			t.Fatalf("lane ops unbalanced: %v", r.Datapath.LaneOps)
		}
	}
	for _, u := range util {
		if u <= 0 || u > 1 {
			t.Fatalf("utilization out of range: %v", util)
		}
	}
}

// TestOverProvisionedLanesIdle pins the motivation behind the area model:
// a movement-bound kernel at 16 lanes leaves its lanes mostly idle.
func TestOverProvisionedLanesIdle(t *testing.T) {
	g := streamKernel(2048)
	cfg := DefaultConfig()
	cfg.Lanes, cfg.Partitions = 16, 16
	r := mustRun(t, g, cfg)
	util := r.Datapath.LaneUtilization()
	for _, u := range util {
		if u > 0.5 {
			t.Fatalf("movement-bound kernel shows %v lane utilization", util)
		}
	}
}
