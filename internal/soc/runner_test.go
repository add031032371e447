package soc

import (
	"reflect"
	"sync"
	"testing"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/sim"
)

// runnerConfigs returns the design points the Runner identity test covers:
// the DMA and cache memory systems (the two the sweeps exercise), each in a
// plain and a seeded fault-injection variant.
func runnerConfigs() map[string]Config {
	dma := DefaultConfig()
	dma.Mem = DMA

	cch := DefaultConfig()
	cch.Mem = Cache

	dmaFaults := dma
	dmaFaults.Faults = fault.Config{Seed: 7, DRAMBitProb: 0.005, SpadBitProb: 0.001,
		BusNackProb: 0.01, BusRetryLimit: 8, DoubleBitFrac: 0.1,
		BusBackoff: 10 * sim.Nanosecond}

	cchFaults := cch
	cchFaults.Faults = fault.Config{Seed: 7, DRAMBitProb: 0.005, CacheBitProb: 0.001,
		BusNackProb: 0.01, BusRetryLimit: 8, DoubleBitFrac: 0.1,
		BusBackoff: 10 * sim.Nanosecond}

	return map[string]Config{
		"dma": dma, "cache": cch,
		"dma-faults": dmaFaults, "cache-faults": cchFaults,
	}
}

// TestRunnerBitIdentical drives one pooled Runner and one shared Compiled
// artifact through every MachSuite kernel under DMA and cache memory systems
// (faults off and seeded on) and requires every result — cycles, energy,
// EDP, per-block stats, fault log — to be bit-identical to a fresh
// per-point Run(Compile(g), cfg) (compile-per-run) of the same design
// point. This is
// both reuse contracts at once: recycled engine, coherence, and datapath
// state must never leak between runs, and nothing in the shared artifact
// may be mutated by a run.
func TestRunnerBitIdentical(t *testing.T) {
	kernels := machsuite.Names()
	if testing.Short() {
		kernels = kernels[:2]
	}
	var r Runner
	for _, name := range kernels {
		g := kernelGraph(t, name)
		k := Compile(g)
		for label, cfg := range runnerConfigs() {
			t.Run(name+"/"+label, func(t *testing.T) {
				pooled, errP := r.Run(k, cfg)
				fresh, errF := Run(Compile(g), cfg)
				if (errP == nil) != (errF == nil) {
					t.Fatalf("error mismatch: pooled %v, fresh %v", errP, errF)
				}
				if errP != nil {
					if errP.Error() != errF.Error() {
						t.Fatalf("error mismatch: pooled %v, fresh %v", errP, errF)
					}
					return
				}
				if !reflect.DeepEqual(pooled, fresh) {
					t.Fatalf("pooled Runner result diverged from a fresh compile-and-run:\npooled: %+v\nfresh:  %+v", pooled, fresh)
				}
			})
		}
	}
}

// TestRunnerSurvivesMemKindSwitch reuses one Runner across alternating
// memory systems and kernel shapes, the pattern a mixed DMA+cache sweep
// produces on each worker. Between its single runs the same Runner takes
// invocations of one, two and three accelerators and one of three rounds,
// so each accelerator slot's recycled datapath changes kernel, memory
// system and round count; every outcome must match a fresh one-shot run.
func TestRunnerSurvivesMemKindSwitch(t *testing.T) {
	var r Runner
	cfgs := runnerConfigs()
	fft, spmv := Compile(kernelGraph(t, "fft-transpose")), Compile(kernelGraph(t, "spmv-crs"))
	invs := []Invocation{
		{Kernels: []*Compiled{spmv}, Configs: []Config{cfgs["cache"]}, Rounds: 1},
		{Kernels: []*Compiled{fft, spmv}, Configs: []Config{cfgs["dma"], cfgs["cache"]}, Rounds: 1},
		{Kernels: []*Compiled{spmv, fft, spmv},
			Configs: []Config{cfgs["cache-faults"], cfgs["dma"], cfgs["dma-faults"]}, Rounds: 1},
		{Kernels: []*Compiled{fft}, Configs: []Config{cfgs["cache"]}, Rounds: 3},
	}
	step := 0
	for _, k := range []*Compiled{fft, spmv} {
		for _, label := range []string{"dma", "cache", "dma", "cache-faults", "dma-faults", "cache"} {
			name := k.Graph().Trace.Name + "/" + label
			pooled, err := r.Run(k, cfgs[label])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fresh, err := Run(k, cfgs[label])
			if err != nil {
				t.Fatalf("%s fresh: %v", name, err)
			}
			if !reflect.DeepEqual(pooled, fresh) {
				t.Fatalf("%s: interleaved Runner result diverged from fresh Run", name)
			}

			inv := invs[step%len(invs)]
			step++
			got, err := r.Invoke(inv)
			if err != nil {
				t.Fatalf("after %s, invocation %d: %v", name, step%len(invs), err)
			}
			want, err := new(Runner).Invoke(inv)
			if err != nil {
				t.Fatalf("invocation %d fresh: %v", step%len(invs), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s: invocation of %d accelerators x %d rounds diverged from a fresh one",
					name, len(inv.Kernels), inv.Rounds)
			}
		}
	}
}

// TestCompiledSharedAcrossWorkers runs 8 goroutines, each with its own
// Runner, all scheduling the SAME Compiled artifact concurrently across the
// DMA/cache × faults-off/on matrix. Every worker's results must match the
// serial reference bit-exactly. Under -race this also proves the artifact
// (flat op arrays, lane layouts, DMA manifest, shared spans) is genuinely
// read-only during simulation.
func TestCompiledSharedAcrossWorkers(t *testing.T) {
	k := Compile(kernelGraph(t, "fft-transpose"))
	cfgs := runnerConfigs()
	labels := []string{"dma", "cache", "dma-faults", "cache-faults"}

	want := make(map[string]*RunResult, len(labels))
	for _, label := range labels {
		res, err := Run(k, cfgs[label])
		if err != nil {
			t.Fatalf("reference %s: %v", label, err)
		}
		want[label] = res
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var r Runner
			// Stagger the label order per worker so concurrent runs hit
			// different lane layouts and memory systems at the same time.
			for i := 0; i < 2*len(labels); i++ {
				label := labels[(w+i)%len(labels)]
				res, err := r.Run(k, cfgs[label])
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(res, want[label]) {
					t.Errorf("worker %d: %s diverged from serial reference", w, label)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestRunnerPerPointAllocs pins the per-point setup cost of a recycled
// Runner over a shared artifact. The compile-once split moved the graph
// walks (lane layout, transfer manifest, op-class scan) out of the
// per-point path; this gate keeps them out. The ceiling has headroom over
// the measured count (~0.5k) but is far below the compile-per-point cost
// (tens of thousands of allocations for this kernel).
func TestRunnerPerPointAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state averaging")
	}
	k := Compile(kernelGraph(t, "fft-transpose"))
	cfg := DefaultConfig()
	cfg.Mem = DMA
	var r Runner
	// Warm the runner and the artifact's lane-layout cache.
	for i := 0; i < 2; i++ {
		if _, err := r.Run(k, cfg); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 2000
	avg := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(k, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Fatalf("per-point allocations %.0f exceed ceiling %d", avg, ceiling)
	}
}

// TestInvocationAllocs gates a two-accelerator invocation on a reused Runner
// the way TestRunnerPerPointAllocs gates a single point: fft-transpose on
// DMA beside spmv-crs on the cache. The ceiling has headroom over the
// measured count (549) and stays below the 992 the same pair took when
// every multi-accelerator run built a fresh engine, coherence directory
// and datapaths.
func TestInvocationAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state averaging")
	}
	cfgs := runnerConfigs()
	inv := Invocation{
		Kernels: []*Compiled{Compile(kernelGraph(t, "fft-transpose")), Compile(kernelGraph(t, "spmv-crs"))},
		Configs: []Config{cfgs["dma"], cfgs["cache"]},
		Rounds:  1,
	}
	var r Runner
	// Warm the runner's slots and the artifacts' lane-layout caches.
	for i := 0; i < 2; i++ {
		if _, err := r.Invoke(inv); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 900
	avg := testing.AllocsPerRun(5, func() {
		if _, err := r.Invoke(inv); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per two-accelerator invocation", avg)
	if avg > ceiling {
		t.Fatalf("per-invocation allocations %.0f exceed ceiling %d", avg, ceiling)
	}
}
