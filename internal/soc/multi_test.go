package soc

import (
	"testing"

	"gem5aladdin/internal/sim"
)

// together launches ks at once, for one round, on a fresh Runner.
func together(ks []*Compiled, cfgs []Config) (*InvocationResult, error) {
	var r Runner
	return r.Invoke(Invocation{Kernels: ks, Configs: cfgs, Rounds: 1})
}

// repeated invokes k alone rounds times back to back on a fresh Runner.
func repeated(k *Compiled, cfg Config, rounds int, reuse bool) (*InvocationResult, error) {
	var r Runner
	return r.Invoke(Invocation{Kernels: []*Compiled{k}, Configs: []Config{cfg}, Rounds: rounds, ReuseInputs: reuse})
}

// steady is the last round's latency: the warmed-up cost of an invocation
// once caches and TLBs hold whatever survives between calls.
func steady(out *InvocationResult) sim.Tick { return out.Rounds[len(out.Rounds)-1] }

func TestRunMultiSingleMatchesRun(t *testing.T) {
	g := streamKernel(256)
	cfg := DefaultConfig()
	solo, err := Run(Compile(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := together([]*Compiled{Compile(g)}, []Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Results) != 1 {
		t.Fatalf("results = %d", len(multi.Results))
	}
	if multi.Results[0].Runtime != solo.Runtime {
		t.Fatalf("single-accelerator invocation %v != Run %v",
			multi.Results[0].Runtime, solo.Runtime)
	}
	if multi.Makespan != solo.Runtime {
		t.Fatalf("makespan %v != runtime %v", multi.Makespan, solo.Runtime)
	}
}

func TestRunMultiContention(t *testing.T) {
	g := streamKernel(2048)
	cfg := DefaultConfig()
	solo, err := Run(Compile(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two identical DMA accelerators sharing the bus must each run
	// slower than alone, and combined DMA bytes must double.
	multi, err := together([]*Compiled{Compile(g), Compile(g)}, []Config{cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range multi.Results {
		if r.Runtime <= solo.Runtime {
			t.Fatalf("accelerator %d ran as fast under contention (%v vs %v)",
				i, r.Runtime, solo.Runtime)
		}
	}
	if multi.Makespan < multi.Results[0].Runtime || multi.Makespan < multi.Results[1].Runtime {
		t.Fatal("makespan below an individual runtime")
	}
	// Fabric-wide bus stats include both accelerators' traffic.
	soloBytes := solo.Bus.BytesMoved
	if multi.Results[0].Bus.BytesMoved < 2*soloBytes {
		t.Fatalf("shared bus moved %d bytes, want >= %d",
			multi.Results[0].Bus.BytesMoved, 2*soloBytes)
	}
}

func TestRunMultiMixedMemorySystems(t *testing.T) {
	g1 := streamKernel(512)
	g2 := streamKernel(512)
	dmaCfg := DefaultConfig()
	cacheCfg := DefaultConfig()
	cacheCfg.Mem = Cache
	multi, err := together([]*Compiled{Compile(g1), Compile(g2)}, []Config{dmaCfg, cacheCfg})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Results[0].DMA.BytesMoved == 0 {
		t.Fatal("DMA accelerator moved nothing")
	}
	if multi.Results[1].Cache.Accesses == 0 {
		t.Fatal("cache accelerator never accessed its cache")
	}
	// Distinct physical windows: combined DRAM traffic reflects both.
	if multi.Results[0].DRAM.BytesMoved <= multi.Results[0].DMA.BytesMoved/2 {
		t.Fatal("DRAM traffic implausibly low")
	}
}

func TestRunMultiTwoCaches(t *testing.T) {
	g := streamKernel(512)
	cfg := DefaultConfig()
	cfg.Mem = Cache
	multi, err := together([]*Compiled{Compile(g), Compile(g)}, []Config{cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Each accelerator pulls its own window's dirty lines from the CPU:
	// both see cache-to-cache fills and none steal the other's lines.
	for i, r := range multi.Results {
		if r.Cache.C2CFills == 0 {
			t.Fatalf("accelerator %d: no coherent fills", i)
		}
		if r.Cache.Misses == 0 {
			t.Fatalf("accelerator %d: no misses", i)
		}
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	g := streamKernel(512)
	cfg := DefaultConfig()
	a, err := together([]*Compiled{Compile(g), Compile(g)}, []Config{cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	b, err := together([]*Compiled{Compile(g), Compile(g)}, []Config{cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i].Runtime != b.Results[i].Runtime {
			t.Fatalf("accelerator %d nondeterministic", i)
		}
	}
}

func TestRunMultiValidation(t *testing.T) {
	g := streamKernel(64)
	if _, err := together(nil, nil); err == nil {
		t.Fatal("empty invocation accepted")
	}
	if _, err := together([]*Compiled{Compile(g)}, []Config{DefaultConfig(), DefaultConfig()}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	bad := DefaultConfig()
	bad.Lanes = 0
	if _, err := together([]*Compiled{Compile(g)}, []Config{bad}); err == nil {
		t.Fatal("invalid config accepted")
	}
	// Only an invocation of several accelerators names the one at fault;
	// a single run reports the config error as it is.
	want := bad.Validate().Error()
	if _, err := Run(Compile(g), bad); err == nil || err.Error() != want {
		t.Fatalf("single run: %v, want %q", err, want)
	}
	_, err := together([]*Compiled{Compile(g), Compile(g)}, []Config{DefaultConfig(), bad})
	if err == nil || err.Error() != "soc: accelerator 1: "+want {
		t.Fatalf("two accelerators: %v, want %q", err, "soc: accelerator 1: "+want)
	}
}

func TestRunMultiWithBackgroundTraffic(t *testing.T) {
	g := streamKernel(512)
	cfg := DefaultConfig()
	cfg.Traffic = &TrafficConfig{Period: 500 * sim.Nanosecond, Bytes: 128}
	multi, err := together([]*Compiled{Compile(g), Compile(g)}, []Config{cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	quietCfg := DefaultConfig()
	quiet, err := together([]*Compiled{Compile(g), Compile(g)}, []Config{quietCfg, quietCfg})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Makespan <= quiet.Makespan {
		t.Fatal("background traffic did not slow the pair")
	}
}

func TestCoherentDMAEndToEnd(t *testing.T) {
	g := streamKernel(2048)
	sw := DefaultConfig()
	swRes, err := Run(Compile(g), sw)
	if err != nil {
		t.Fatal(err)
	}
	hw := DefaultConfig()
	hw.CoherentDMA = true
	hwRes, err := Run(Compile(g), hw)
	if err != nil {
		t.Fatal(err)
	}
	if hwRes.Runtime >= swRes.Runtime {
		t.Fatalf("coherent DMA (%v) not faster than software coherence (%v)",
			hwRes.Runtime, swRes.Runtime)
	}
	if hwRes.Breakdown.FlushOnly != 0 {
		t.Fatal("coherent DMA still shows flush time")
	}
	if hwRes.DMA.LinesFlushed != 0 {
		t.Fatal("coherent DMA flushed lines")
	}
}

func TestRunRepeatedCacheAmortizes(t *testing.T) {
	g := streamKernel(1024)
	cfg := DefaultConfig()
	cfg.Mem = Cache
	// Inputs reused (resident coefficient table scenario): later rounds
	// must be much faster than the cold first round.
	reuse, err := repeated(Compile(g), cfg, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reuse.Rounds) != 4 {
		t.Fatalf("rounds = %d", len(reuse.Rounds))
	}
	if steady(reuse) >= reuse.Rounds[0] {
		t.Fatalf("steady state (%v) not faster than cold round (%v)",
			steady(reuse), reuse.Rounds[0])
	}
	if float64(steady(reuse)) > 0.8*float64(reuse.Rounds[0]) {
		t.Fatalf("warm cache amortized too little: %v vs %v",
			steady(reuse), reuse.Rounds[0])
	}

	// Fresh inputs every round: the CPU re-dirties its lines, so every
	// round pays coherent refills and stays near the cold cost.
	fresh, err := repeated(Compile(g), cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if float64(steady(fresh)) < 0.7*float64(fresh.Rounds[0]) {
		t.Fatalf("fresh inputs should not amortize: %v vs %v",
			steady(fresh), fresh.Rounds[0])
	}
	// And the reused-inputs steady state beats the fresh-inputs one.
	if steady(reuse) >= steady(fresh) {
		t.Fatalf("reuse steady state %v not below fresh %v",
			steady(reuse), steady(fresh))
	}
}

func TestRunRepeatedDMAConstant(t *testing.T) {
	g := streamKernel(1024)
	cfg := DefaultConfig()
	rr, err := repeated(Compile(g), cfg, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	// DMA pays the full transfer every round; all rounds within 5%.
	for i := 1; i < len(rr.Rounds); i++ {
		ratio := float64(rr.Rounds[i]) / float64(rr.Rounds[0])
		if ratio < 0.95 || ratio > 1.05 {
			t.Fatalf("DMA round %d = %v vs round 0 = %v", i, rr.Rounds[i], rr.Rounds[0])
		}
	}
	if rr.Results[0].Runtime != rr.Makespan {
		t.Fatal("cumulative runtime != makespan")
	}
}

// TestRunRepeatedWithTraffic runs repeated invocations beside a background
// traffic agent, which reschedules itself until stopped: every round must
// end once its invocation is observed, the first round must match a plain
// Run of the same point, and contention can only slow a round down.
func TestRunRepeatedWithTraffic(t *testing.T) {
	k := Compile(kernelGraph(t, "spmv-crs"))
	quiet := DefaultConfig()
	quiet.Mem = DMA
	quiet.WatchdogTicks = 10 * sim.Millisecond
	busy := quiet
	busy.Traffic = &TrafficConfig{Period: 200 * sim.Nanosecond, Bytes: 32}

	rr, err := repeated(k, busy, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(k, busy)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Rounds[0] != one.Runtime {
		t.Fatalf("first round %v, plain run %v", rr.Rounds[0], one.Runtime)
	}
	base, err := repeated(k, quiet, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rr.Rounds {
		if rr.Rounds[i] < base.Rounds[i] {
			t.Fatalf("round %d with traffic %v, without %v", i, rr.Rounds[i], base.Rounds[i])
		}
	}
}

func TestRunRepeatedValidation(t *testing.T) {
	g := streamKernel(64)
	if _, err := repeated(Compile(g), DefaultConfig(), 0, false); err == nil {
		t.Fatal("zero invocations accepted")
	}
}
