package soc

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/sim"
)

// timeAccountingGolden is the digest of every point's time accounting in
// TestTimeAccountingGolden. It was computed while Breakdown and the
// profiler's Attribution still ran on two separate interval algebras, and
// must never be edited: a mismatch means a run's flush/DMA/compute
// breakdown or its cycle attribution moved.
const timeAccountingGolden = "12d58dcb6c0b5af4a13d3f9a2e81a532ca463714dcf456b02b196b93900bef5a"

// TestTimeAccountingGolden pins where every tick of a run goes, bit for
// bit: each MachSuite kernel on the ideal, isolated, DMA and cache memory
// systems, over every fabric, with faults off and with runnerConfigs'
// seeded faults. Each point folds in its five Breakdown fields and its
// profiler Attribution's per-bucket ticks.
func TestTimeAccountingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("456 profiled runs; run without -short")
	}
	seeded := runnerConfigs()
	g := goldenHash{sha256.New()}
	var r Runner
	points := 0
	for _, name := range machsuite.Names() {
		k := Compile(kernelGraph(t, name))
		for _, mem := range []MemKind{Ideal, Isolated, DMA, Cache} {
			faults := seeded["dma-faults"].Faults
			if mem == Cache {
				faults = seeded["cache-faults"].Faults
			}
			for _, kind := range FabricKinds() {
				for _, faulty := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.Mem = mem
					cfg.Fabric.Kind = kind
					cfg.WatchdogTicks = 50 * sim.Millisecond
					if faulty {
						cfg.Faults = faults
					}
					res, att, err := r.ProfileRun(k, cfg)
					if err != nil {
						t.Fatalf("%s/%v/%v faults=%v: %v", name, mem, kind, faulty, err)
					}
					label := name + "/" + mem.String() + "/" + kind.String()
					if faulty {
						label += "/faults"
					}
					g.h.Write([]byte(label))
					b := res.Breakdown
					for _, v := range []sim.Tick{b.FlushOnly, b.DMAFlush, b.ComputeDMA, b.ComputeOnly, b.Idle} {
						g.word(uint64(v))
					}
					for _, v := range att.Ticks {
						g.word(v)
					}
					points++
				}
			}
		}
	}
	if points != 456 {
		t.Fatalf("%d points, want 456", points)
	}
	if got := hex.EncodeToString(g.h.Sum(nil)); got != timeAccountingGolden {
		t.Fatalf("time accounting digest %s, want %s", got, timeAccountingGolden)
	}
}
