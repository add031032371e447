package soc

import (
	"errors"
	"reflect"
	"testing"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/sim"
)

// fabricConfigs returns one config per interconnect backend over the given
// memory system.
func fabricConfigs(mem MemKind) map[string]Config {
	out := make(map[string]Config, numFabricKinds)
	for _, k := range FabricKinds() {
		cfg := DefaultConfig()
		cfg.Mem = mem
		cfg.Fabric.Kind = k
		out[k.String()] = cfg
	}
	return out
}

// TestFabricBackendsEndToEnd runs the stream kernel through every backend
// on both sweep memory systems: each must complete, move the same payload,
// and be bit-identical across reruns.
func TestFabricBackendsEndToEnd(t *testing.T) {
	for _, mem := range []MemKind{DMA, Cache} {
		g := streamKernel(512)
		for name, cfg := range fabricConfigs(mem) {
			a := mustRun(t, g, cfg)
			b := mustRun(t, g, cfg)
			if a.Runtime == 0 {
				t.Errorf("%s/%s: zero runtime", mem, name)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: rerun is not bit-identical", mem, name)
			}
			if a.Bus.Transactions == 0 || a.Bus.BytesMoved == 0 {
				t.Errorf("%s/%s: no fabric traffic recorded: %+v", mem, name, a.Bus)
			}
		}
	}
}

// TestFabricBusBitIdentical pins the tentpole refactor's core contract: a
// Config with the zero-valued Fabric block must be indistinguishable from
// one explicitly selecting FabricBus — same interface route, same timing.
func TestFabricBusBitIdentical(t *testing.T) {
	g := streamKernel(512)
	zero := DefaultConfig()
	explicit := DefaultConfig()
	explicit.Fabric.Kind = FabricBus
	a := mustRun(t, g, zero)
	b := mustRun(t, g, explicit)
	a.Config, b.Config = Config{}, Config{}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("explicit FabricBus differs from the zero-valued Fabric config")
	}
}

// TestFabricRunnerMatchesRun extends the Runner bit-identity contract to
// the new backends: the state-recycling path must match one-shot Run on
// every fabric.
func TestFabricRunnerMatchesRun(t *testing.T) {
	g := streamKernel(512)
	k := Compile(g)
	var r Runner
	for _, mem := range []MemKind{DMA, Cache} {
		for name, cfg := range fabricConfigs(mem) {
			oneShot, err := Run(k, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", mem, name, err)
			}
			pooled, err := r.Run(k, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", mem, name, err)
			}
			if !reflect.DeepEqual(oneShot, pooled) {
				t.Errorf("%s/%s: Runner result differs from one-shot Run", mem, name)
			}
		}
	}
}

// TestRunMultiPerFabric is the N-accelerator contention regression: three
// accelerators sharing each backend must all finish, each slower than solo,
// and the whole scenario must be deterministic across reruns.
func TestRunMultiPerFabric(t *testing.T) {
	g := streamKernel(1024)
	k := Compile(g)
	const n = 3
	for name, cfg := range fabricConfigs(DMA) {
		solo, err := Run(k, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ks := make([]*Compiled, n)
		cfgs := make([]Config, n)
		for i := range ks {
			ks[i], cfgs[i] = k, cfg
		}
		multi, err := together(ks, cfgs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(multi.Results) != n {
			t.Fatalf("%s: %d results, want %d", name, len(multi.Results), n)
		}
		for i, r := range multi.Results {
			if r.Runtime <= solo.Runtime {
				t.Errorf("%s: accelerator %d ran as fast under contention (%v vs solo %v)",
					name, i, r.Runtime, solo.Runtime)
			}
		}
		again, err := together(ks, cfgs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(multi, again) {
			t.Errorf("%s: rerun is not bit-identical", name)
		}
	}
}

// TestFabricContentionDiffers sanity-checks that the backends are really
// different machines: under multi-accelerator contention the three fabrics
// must not all produce the same makespan.
func TestFabricContentionDiffers(t *testing.T) {
	g := streamKernel(1024)
	k := Compile(g)
	seen := map[sim.Tick]bool{}
	for _, cfg := range fabricConfigs(DMA) {
		ks := []*Compiled{k, k, k}
		cfgs := []Config{cfg, cfg, cfg}
		multi, err := together(ks, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		seen[multi.Makespan] = true
	}
	if len(seen) < 2 {
		t.Errorf("all fabrics produced the same contended makespan %v", seen)
	}
}

// TestFabricSanitizeSoak runs a MachSuite subset over every backend and
// both sweep memory systems with the MOESI sanitizer attached — the PR 3
// honesty check extended to the new fabrics. Kept to a subset so the CI
// fabric matrix can run it in short mode.
func TestFabricSanitizeSoak(t *testing.T) {
	subset := []string{"spmv-crs", "stencil-stencil2d", "sort-merge"}
	for _, kname := range subset {
		k, err := machsuite.ByName(kname)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		g := ddg.Build(tr)
		for _, mem := range []MemKind{DMA, Cache} {
			for name, cfg := range fabricConfigs(mem) {
				cfg.Sanitize = true
				if _, err := Run(Compile(g), cfg); err != nil {
					t.Errorf("%s/%s/%s: sanitizer violation: %v", kname, mem, name, err)
				}
			}
		}
	}
}

// TestFabricFaultSoak exercises the seeded fault injector against every
// backend: NACK/backoff/retry must either complete or abort deterministically,
// with identical outcomes (result or failure) across reruns.
func TestFabricFaultSoak(t *testing.T) {
	g := streamKernel(512)
	for name, cfg := range fabricConfigs(DMA) {
		cfg.Faults = fault.Config{Seed: 11, BusNackProb: 0.05, BusRetryLimit: 16,
			BusBackoff: 10 * sim.Nanosecond, DRAMBitProb: 0.001, DoubleBitFrac: 0.1}
		run := func() (*RunResult, error) { return Run(Compile(g), cfg) }
		a, errA := run()
		b, errB := run()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: fault outcome flipped across reruns: %v vs %v", name, errA, errB)
		}
		if errA != nil {
			if !errors.Is(errA, ErrAborted) {
				t.Fatalf("%s: error %v does not wrap ErrAborted", name, errA)
			}
			if errA.Error() != errB.Error() {
				t.Fatalf("%s: abort diagnostics differ: %q vs %q", name, errA, errB)
			}
			continue
		}
		if a.Faults.BusNacks == 0 {
			t.Errorf("%s: injector fired no bus NACKs", name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: fault-injected rerun is not bit-identical", name)
		}
	}
}
