package soc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/sim"
)

// socGolden holds one digest per fabric backend over the design points
// TestFabricSoCGolden runs. The values were computed before the backends
// shared their admission and transaction code, and must never be edited:
// a mismatch means a simulated result moved on that fabric.
var socGolden = map[string]string{
	"bus":      "341712e5d136ad900aa65cac99d15b61836225c3ccc69097898e1e528113a601",
	"crossbar": "989399b7390278e3b3e756d234482f2935c31b1c54fc8950f6dfc38559af02b6",
	"mesh":     "b270e5e315bc515dc01d7bd0933813d763e9b186c1f6efd98c4eb86d709b06ed",
}

// goldenHash accumulates run outcomes into one digest.
type goldenHash struct{ h hash.Hash }

func (g goldenHash) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	g.h.Write(b[:])
}

// result folds one point's outcome in: for a completed run its runtime,
// cycles, the bits of its total energy, the fabric and injector counters
// and the fault log; for an aborted one the abort kind and, for a stall,
// when it was caught and after how many events. The stall's message is
// left out on purpose: it carries each component's in-flight dump.
func (g goldenHash) result(label string, r *RunResult, err error) {
	g.h.Write([]byte(label))
	if err != nil {
		g.h.Write([]byte("abort:" + AbortKind(err)))
		if st := StallOf(err); st != nil {
			g.word(uint64(st.Now))
			g.word(st.EventsFired)
		}
		return
	}
	g.word(uint64(r.Runtime))
	g.word(r.Cycles)
	g.word(math.Float64bits(r.Energy.Total()))
	g.word(r.Bus.Transactions)
	g.word(r.Bus.BytesMoved)
	g.word(uint64(r.Bus.BusyTicks))
	g.word(uint64(r.Bus.WaitTicks))
	s := r.Faults
	for _, v := range []uint64{s.Injected, s.CorrectedSingles, s.DetectedDoubles,
		s.BusNacks, s.BusRetries, s.BusDrops, s.DMATimeouts, s.DMARetries, s.DMAAborts} {
		g.word(v)
	}
	for _, rec := range r.FaultLog {
		g.word(rec.Seq)
		g.word(uint64(rec.Tick))
		g.word(uint64(rec.Site)<<8 | uint64(rec.Outcome))
		g.word(rec.Addr)
		g.word(uint64(rec.Attempt))
	}
}

// TestFabricSoCGolden pins every fabric backend's end-to-end timing bit
// for bit: four MachSuite kernels on the DMA and cache memory systems with
// faults off and seeded on, three accelerators sharing the fabric, a
// background traffic agent, and a fault rate heavy enough to drop a
// transaction, which the host's completion polling turns into a tick-budget
// stall. Only the three-accelerator invocation and the traffic point
// register more than one fabric master.
func TestFabricSoCGolden(t *testing.T) {
	kernels := []string{"spmv-crs", "stencil-stencil2d", "fft-transpose", "md-knn"}
	seeded := runnerConfigs()
	for _, kind := range FabricKinds() {
		g := goldenHash{sha256.New()}
		for _, name := range kernels {
			k := Compile(kernelGraph(t, name))
			for _, label := range []string{"dma", "dma-faults", "cache", "cache-faults"} {
				cfg := seeded[label]
				cfg.Fabric.Kind = kind
				r, err := Run(k, cfg)
				g.result(name+"/"+label, r, err)
			}
		}

		multiKs := []*Compiled{
			Compile(kernelGraph(t, "spmv-crs")),
			Compile(kernelGraph(t, "md-knn")),
			Compile(kernelGraph(t, "stencil-stencil2d")),
		}
		multiCfgs := []Config{seeded["dma"], seeded["cache"], seeded["dma"]}
		for i := range multiCfgs {
			multiCfgs[i].Fabric.Kind = kind
		}
		multi, err := together(multiKs, multiCfgs)
		if err != nil {
			g.result("multi", nil, err)
		} else {
			g.word(uint64(multi.Makespan))
			for i, r := range multi.Results {
				g.result(fmt.Sprintf("multi/%d", i), r, nil)
			}
		}

		traffic := seeded["cache"]
		traffic.Fabric.Kind = kind
		traffic.Traffic = &TrafficConfig{Period: 400 * sim.Nanosecond, Bytes: 128}
		r, err := Run(multiKs[0], traffic)
		g.result("traffic", r, err)

		heavy := seeded["dma"]
		heavy.Fabric.Kind = kind
		heavy.Faults = fault.Config{Seed: 3, BusNackProb: 0.5, BusRetryLimit: 1,
			BusBackoff: 10 * sim.Nanosecond}
		heavy.WatchdogTicks = 1000 * sim.Microsecond
		r, err = Run(multiKs[0], heavy)
		g.result("heavy-faults", r, err)

		got := hex.EncodeToString(g.h.Sum(nil))
		want, ok := socGolden[kind.String()]
		if !ok {
			t.Errorf("%q: %q,", kind.String(), got)
			continue
		}
		if got != want {
			t.Errorf("%s: digest %s, want %s", kind, got, want)
		}
	}
}
