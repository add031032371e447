package soc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"gem5aladdin/internal/sim"
)

// invocationGolden is the digest of every invocation TestInvocationGolden
// runs. It was computed while multi-accelerator and repeated runs each had
// a lifecycle of their own, and must never be edited: a mismatch means a
// multi-accelerator or repeated result moved.
const invocationGolden = "577dd477ce143fc7b8e65d36f74bce6acbd2e889902322f546aaa10a6fd46206"

// invocation folds one invocation in: each accelerator's whole RunResult,
// then the round latencies, then the makespan. An aborted invocation folds
// in what outcome folds for an abort.
func (g goldenHash) invocation(label string, out *InvocationResult, err error) (aborted bool) {
	if err != nil {
		g.outcome(label, nil, err)
		return true
	}
	g.h.Write([]byte(label))
	for _, r := range out.Results {
		g.value(reflect.ValueOf(*r))
	}
	g.value(reflect.ValueOf(out.Rounds))
	g.word(uint64(out.Makespan))
	return false
}

// TestInvocationGolden pins every multi-accelerator and repeated result bit
// for bit. Four MachSuite kernels run on the DMA and cache memory systems
// over every fabric, with background traffic off and on, and with faults
// off and runnerConfigs' seeded faults. Each cell runs three accelerators
// at once (its kernel on its memory system, then the next kernel on the
// other memory system, then the one after on its own), and three rounds of
// its kernel alone, with the inputs reused and with them rewritten. Every
// accelerator carries a 10 ms tick budget, so a hang aborts instead. Every
// case runs twice: on a fresh Runner, and on one shared Runner that also
// runs a single point before each invocation; both passes must match.
func TestInvocationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("2 x 288 invocations; run without -short")
	}
	names := []string{"spmv-crs", "stencil-stencil2d", "fft-transpose", "md-knn"}
	ks := make([]*Compiled, len(names))
	for i, name := range names {
		ks[i] = Compile(kernelGraph(t, name))
	}
	seeded := runnerConfigs()
	for pass, shared := range []*Runner{nil, new(Runner)} {
		g := goldenHash{sha256.New()}
		cases, aborts := 0, 0
		for i, name := range names {
			for _, mem := range []string{"dma", "cache"} {
				other := map[string]string{"dma": "cache", "cache": "dma"}[mem]
				for _, kind := range FabricKinds() {
					for _, traffic := range []bool{false, true} {
						for _, faults := range []string{"", "-faults"} {
							cell := func(label string) Config {
								cfg := seeded[label+faults]
								cfg.Fabric.Kind = kind
								cfg.WatchdogTicks = 10 * sim.Millisecond
								if traffic {
									cfg.Traffic = &TrafficConfig{Period: 200 * sim.Nanosecond, Bytes: 32}
								}
								return cfg
							}
							invoke := func(label string, inv Invocation) {
								r := shared
								if r == nil {
									r = new(Runner)
								} else if _, err := r.Run(ks[(i+3)%len(ks)], cell(other)); err != nil {
									t.Fatalf("%s: interleaved run: %v", label, err)
								}
								out, err := r.Invoke(inv)
								if g.invocation(label, out, err) {
									aborts++
								}
								cases++
							}
							label := fmt.Sprintf("%s/%s/%v/traffic=%v%s", name, mem, kind, traffic, faults)
							three := []*Compiled{ks[i], ks[(i+1)%len(ks)], ks[(i+2)%len(ks)]}
							invoke(label+"/three", Invocation{Kernels: three,
								Configs: []Config{cell(mem), cell(other), cell(mem)}, Rounds: 1})
							for _, reuse := range []bool{true, false} {
								invoke(fmt.Sprintf("%s/rounds/reuse=%v", label, reuse), Invocation{
									Kernels: three[:1], Configs: []Config{cell(mem)}, Rounds: 3, ReuseInputs: reuse})
							}
						}
					}
				}
			}
		}
		if cases != 288 || aborts != 0 {
			t.Fatalf("pass %d: %d invocations with %d aborts, want 288 with 0", pass, cases, aborts)
		}
		if got := hex.EncodeToString(g.h.Sum(nil)); got != invocationGolden {
			t.Errorf("pass %d: invocation digest %s, want %s", pass, got, invocationGolden)
		}
	}
}
