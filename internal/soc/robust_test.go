package soc

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/sim"
)

// TestRobustnessKnobsDoNotPerturbTiming pins the bit-identity acceptance
// criterion: enabling the watchdog or the sanitizer (or a fault config that
// corrects everything transparently) must not move a single cycle.
func TestRobustnessKnobsDoNotPerturbTiming(t *testing.T) {
	g := streamKernel(256)

	base := DefaultConfig()
	clean := mustRun(t, g, base)

	guarded := base
	guarded.WatchdogTicks = sim.Tick(1e15)
	if r := mustRun(t, g, guarded); r.Cycles != clean.Cycles || r.Runtime != clean.Runtime {
		t.Fatalf("watchdog budget perturbed timing: %d vs %d cycles", r.Cycles, clean.Cycles)
	}

	// ECC faults are corrected in-line by SECDED; they add counters and log
	// records but zero latency, so even probability-1 injection is invisible
	// in the cycle count.
	ecc := base
	ecc.Faults = fault.Config{Seed: 11, DRAMBitProb: 1, SpadBitProb: 1, DoubleBitFrac: 0.25}
	r := mustRun(t, g, ecc)
	if r.Cycles != clean.Cycles || r.Runtime != clean.Runtime {
		t.Fatalf("ECC injection perturbed timing: %d vs %d cycles", r.Cycles, clean.Cycles)
	}
	if r.Faults.Injected == 0 || r.Faults.CorrectedSingles == 0 || r.Faults.DetectedDoubles == 0 {
		t.Fatalf("probability-1 ECC injection recorded nothing: %+v", r.Faults)
	}
	if len(r.FaultLog) == 0 {
		t.Fatalf("fault log empty")
	}

	// Sanitizer on a cache run: pure bookkeeping, identical cycles.
	cc := base
	cc.Mem = Cache
	cleanCache := mustRun(t, g, cc)
	cc.Sanitize = true
	if r := mustRun(t, g, cc); r.Cycles != cleanCache.Cycles {
		t.Fatalf("sanitizer perturbed timing: %d vs %d cycles", r.Cycles, cleanCache.Cycles)
	}
}

// TestSeededFaultsReproducible pins the reproducibility acceptance
// criterion: the same seed yields an identical fault log, identical
// recovery stats, and an identical cycle count; a different seed does not.
func TestSeededFaultsReproducible(t *testing.T) {
	g := streamKernel(256)
	// Cache mode: every miss is its own bus transaction, so the NACK stream
	// gets hundreds of draws instead of the DMA path's two.
	cfg := DefaultConfig()
	cfg.Mem = Cache
	cfg.Faults = fault.Config{Seed: 42, DRAMBitProb: 0.01, CacheBitProb: 0.001,
		DoubleBitFrac: 0.1, BusNackProb: 0.2, BusRetryLimit: 8,
		BusBackoff: 10 * sim.Nanosecond}

	a := mustRun(t, g, cfg)
	b := mustRun(t, g, cfg)
	if a.Cycles != b.Cycles || a.Runtime != b.Runtime {
		t.Fatalf("same seed, different cycles: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Faults != b.Faults {
		t.Fatalf("same seed, different stats: %+v vs %+v", a.Faults, b.Faults)
	}
	if !reflect.DeepEqual(a.FaultLog, b.FaultLog) {
		t.Fatalf("same seed, different fault logs (%d vs %d records)",
			len(a.FaultLog), len(b.FaultLog))
	}
	if a.Faults.BusNacks == 0 || a.Faults.BusRetries == 0 {
		t.Fatalf("NACK config injected nothing: %+v", a.Faults)
	}
	if a.Faults.BusDrops != 0 {
		t.Fatalf("8 retries at p=0.2 should never exhaust: %+v", a.Faults)
	}

	cfg.Faults.Seed = 43
	c := mustRun(t, g, cfg)
	if reflect.DeepEqual(a.FaultLog, c.FaultLog) && a.Faults == c.Faults {
		t.Fatalf("seeds 42 and 43 produced identical fault activity")
	}

	// NACK-and-retry cycles are not free: the faulted run must be slower
	// than the clean one.
	cleanCfg := cfg
	cleanCfg.Faults = fault.Config{}
	clean := mustRun(t, g, cleanCfg)
	if a.Runtime <= clean.Runtime {
		t.Fatalf("bus NACKs did not cost time: %v <= %v", a.Runtime, clean.Runtime)
	}
}

// TestDMATimeoutRecovers drives bus drops hard enough that descriptors time
// out and are reissued, and checks the transfer still completes.
func TestDMATimeoutRecovers(t *testing.T) {
	g := streamKernel(128)
	// A DMA run is only a handful of bus transactions (one address phase per
	// streamed descriptor), so the NACK probability must be high for drops
	// to be certain: at p=0.9 with zero bus retries nearly every attempt is
	// dropped, and each chunk needs ~10 timeout-driven reissues to get
	// through. 100 DMA retries puts the failure odds below 1e-4 per chunk.
	cfg := DefaultConfig()
	cfg.Faults = fault.Config{Seed: 5, BusNackProb: 0.9, BusRetryLimit: 0,
		BusBackoff: 10 * sim.Nanosecond,
		DMATimeout: 100000 * sim.Nanosecond, DMARetries: 100}
	r := mustRun(t, g, cfg)
	if r.Faults.BusDrops == 0 {
		t.Fatalf("retry limit 0 at p=0.9 should drop transactions: %+v", r.Faults)
	}
	if r.Faults.DMATimeouts == 0 || r.Faults.DMARetries == 0 {
		t.Fatalf("dropped descriptors should time out and retry: %+v", r.Faults)
	}
	if r.Faults.DMAAborts != 0 {
		t.Fatalf("100 retries should always recover: %+v", r.Faults)
	}
	if r.Faults.Recovered() == 0 {
		t.Fatalf("recovery counter empty: %+v", r.Faults)
	}
}

// TestWatchdogCatchesWedgedTransfer pins the wedge acceptance criterion:
// with every bus grant NACKed and zero retries, the first DMA descriptor is
// dropped, its completion never fires, and the quiesced run terminates with
// a structured diagnostic naming the stuck components instead of returning
// a bogus result.
func TestWatchdogCatchesWedgedTransfer(t *testing.T) {
	g := streamKernel(64)
	cfg := DefaultConfig()
	// Baseline DMA: compute starts only from the transfer-complete callback,
	// so a dropped descriptor leaves a drained queue with work in flight (the
	// lost-callback failure mode). Triggered compute instead polls ready bits
	// every cycle and is caught by the tick budget, tested below.
	cfg.PipelinedDMA = false
	cfg.DMATriggered = false
	cfg.Faults = fault.Config{Seed: 1, BusNackProb: 1, BusRetryLimit: 0,
		BusBackoff: 10 * sim.Nanosecond}
	res, err := Run(Compile(g), cfg)
	if err == nil {
		t.Fatalf("wedged run returned a result: %+v", res)
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("error %v does not wrap ErrAborted", err)
	}
	var se *sim.StallError
	if !errors.As(err, &se) {
		t.Fatalf("error %v does not carry a *sim.StallError", err)
	}
	if se.Reason != "event queue quiesced with work in flight" {
		t.Fatalf("reason %q", se.Reason)
	}
	found := false
	for _, it := range se.Items {
		if strings.Contains(it.Name, "dma") && it.InFlight > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostic does not list the stuck DMA engine: %v", err)
	}
}

// TestWatchdogTickBudget pins the livelock guard: a tick budget the run
// cannot meet aborts with a budget StallError instead of running forever.
func TestWatchdogTickBudget(t *testing.T) {
	g := streamKernel(256)
	cfg := DefaultConfig()
	cfg.WatchdogTicks = 10 // ten picoseconds: no transfer can finish
	_, err := Run(Compile(g), cfg)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("error %v does not wrap ErrAborted", err)
	}
	var se *sim.StallError
	if !errors.As(err, &se) {
		t.Fatalf("error %v does not carry a *sim.StallError", err)
	}
	if !strings.Contains(se.Reason, "tick budget") {
		t.Fatalf("reason %q", se.Reason)
	}
}

// TestWatchdogBudgetCatchesLivelock pins the other wedge shape: with
// DMA-triggered compute the datapath polls its ready bits every cycle, so a
// dropped descriptor livelocks the run (the queue never drains) and only
// the tick budget can stop it — with the stuck DMA state in the diagnostic.
func TestWatchdogBudgetCatchesLivelock(t *testing.T) {
	g := streamKernel(64)
	cfg := DefaultConfig() // PipelinedDMA + DMATriggered on
	cfg.Faults = fault.Config{Seed: 1, BusNackProb: 1, BusRetryLimit: 0,
		BusBackoff: 10 * sim.Nanosecond}
	cfg.WatchdogTicks = sim.Tick(1e9) // 1 ms of virtual time, never reached cleanly
	_, err := Run(Compile(g), cfg)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("error %v does not wrap ErrAborted", err)
	}
	var se *sim.StallError
	if !errors.As(err, &se) {
		t.Fatalf("error %v does not carry a *sim.StallError", err)
	}
	if !strings.Contains(se.Reason, "tick budget") {
		t.Fatalf("reason %q", se.Reason)
	}
	found := false
	for _, it := range se.Items {
		if strings.Contains(it.Name, "dma") && it.InFlight > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostic does not list the stuck DMA engine: %v", err)
	}
}

// TestDMAAbortSurfacesError exhausts DMA retries (every attempt is dropped
// on the bus) and checks the abort arrives as a wrapped error, not a panic.
func TestDMAAbortSurfacesError(t *testing.T) {
	g := streamKernel(64)
	cfg := DefaultConfig()
	cfg.Faults = fault.Config{Seed: 1, BusNackProb: 1, BusRetryLimit: 0,
		BusBackoff: 10 * sim.Nanosecond,
		DMATimeout: 1000 * sim.Nanosecond, DMARetries: 2}
	_, err := Run(Compile(g), cfg)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("error %v does not wrap ErrAborted", err)
	}
	if !strings.Contains(err.Error(), "dma") {
		t.Fatalf("abort %q does not name the DMA engine", err)
	}
}

// TestSanitizeMachSuite is the tier-2 sanitizer soak: every MachSuite
// kernel, simulated end to end on the coherent cache memory system with the
// MOESI sanitizer attached, must complete without a violation.
func TestSanitizeMachSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2 soak; skipped in -short")
	}
	for _, k := range machsuite.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			tr, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			g := ddg.Build(tr)
			cfg := DefaultConfig()
			cfg.Mem = Cache
			cfg.Sanitize = true
			if _, err := Run(Compile(g), cfg); err != nil {
				t.Fatalf("sanitizer violation: %v", err)
			}
			// The DMA path exercises FlushLine and coherent streaming too.
			cfg.Mem = DMA
			if _, err := Run(Compile(g), cfg); err != nil {
				t.Fatalf("sanitizer violation (dma): %v", err)
			}
		})
	}
}
