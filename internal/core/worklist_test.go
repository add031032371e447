package core

import (
	"reflect"
	"testing"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/trace"
)

// runDriven executes g on an ideal memory, driving the engine with Run —
// which lets the datapath take its cycles inline — or with Step, which
// makes it schedule every one. It returns the result and the events fired.
func runDriven(t *testing.T, g *ddg.Graph, cfg Config, inline bool) (*Result, uint64) {
	t.Helper()
	eng := sim.NewEngine()
	d := NewDatapath(eng, g, cfg, IdealMem{})
	var res *Result
	d.Start(func(r *Result) { res = r })
	if inline {
		eng.Run()
	} else {
		for eng.Step() {
		}
	}
	if res == nil {
		t.Fatal("datapath never finished")
	}
	return res, eng.EventsFired()
}

// TestStallAccounting runs a hand-built DDG on two lanes. Iteration 0
// (lane 0, wave 1) is a 15-cycle OpFDiv A, then an independent IAdd A2.
// Iteration 1 (lane 1, wave 1) is B = A + 1.0, so lane 1 waits on lane 0.
// Iteration 2 (lane 0, wave 2) is C = B + 1.0: lane 0 waits on lane 1 and
// on the wave barrier, which takes precedence.
//
//	cycle 0       A issues (visible at 15); lane 1 waits on A
//	cycle 1       A2 issues (visible at 2); lane 0 reaches the barrier
//	cycle 2       A2 completes; lane 0 barrier, lane 1 dependence
//	cycles 3-14   the same
//	cycle 15      A completes and readies lane 1; B issues (visible at 18)
//	cycles 16-17  lane 0 barrier
//	cycle 18      B completes and wave 1 retires; C issues (visible at 21)
//	cycle 19      C in flight; nothing can change before cycle 21
//	cycle 21      C completes; the datapath finishes
//
// So DepStalls counts cycles 0-14, BarrierStalls cycles 2-17, and
// ActiveCycles cycles 0-19, in one compute interval: cycle 20 is never
// ticked, so it counts toward Cycles alone. The engine fires one event per
// ticked cycle (0-19 and 21) whether they are taken inline or scheduled.
func TestStallAccounting(t *testing.T) {
	b := trace.NewBuilder("stalls")
	b.BeginIter()
	a := b.FDiv(b.ConstF(1), b.ConstF(3))
	b.IAdd(b.ConstI(1), b.ConstI(2))
	b.BeginIter()
	v := b.FAdd(a, b.ConstF(1))
	b.BeginIter()
	b.FAdd(v, b.ConstF(1))
	g := ddg.Build(b.Finish())
	cfg := cfgLanes(2)
	cycle := cfg.Clock.Period

	res, fired := runDriven(t, g, cfg, true)
	st := res.Stats
	if st.DepStalls != 15 || st.BarrierStalls != 16 || st.ActiveCycles != 20 ||
		st.MemStalls != 0 || st.Cycles != 21 {
		t.Fatalf("dep %d barrier %d active %d mem %d cycles %d, want 15 16 20 0 21",
			st.DepStalls, st.BarrierStalls, st.ActiveCycles, st.MemStalls, st.Cycles)
	}
	want := []obs.Interval{{Start: 0, End: uint64(20 * cycle)}}
	if !reflect.DeepEqual(res.ComputeIntervals, want) {
		t.Fatalf("compute intervals %v, want %v", res.ComputeIntervals, want)
	}
	if fired != 21 {
		t.Fatalf("%d events fired, want 21", fired)
	}

	sched, schedFired := runDriven(t, g, cfg, false)
	if !reflect.DeepEqual(res, sched) || fired != schedFired {
		t.Fatalf("inline run %+v after %d events, scheduled run %+v after %d",
			res, fired, sched, schedFired)
	}
}

// TestInlineCyclesMatchScheduled runs graphs with barrier, dependence and
// long-latency stalls on several lane counts, past 64 lanes too, and
// requires the inline-driven result to equal the scheduled one field for
// field, with the same number of events fired.
func TestInlineCyclesMatchScheduled(t *testing.T) {
	b := trace.NewBuilder("mixed")
	acc := b.ConstF(1)
	for i := 0; i < 150; i++ {
		b.BeginIter()
		x := b.FMul(b.ConstF(float64(i)), b.ConstF(2))
		if i%7 == 0 {
			acc = b.FDiv(acc, x)
		}
		b.IAdd(b.ConstI(int64(i)), b.ConstI(1))
	}
	graphs := map[string]*ddg.Graph{
		"mixed":    ddg.Build(b.Finish()),
		"parallel": parallelTrace(70, 5),
	}
	for name, g := range graphs {
		for _, lanes := range []int{1, 2, 5, 64, 65, 130} {
			for _, noBarrier := range []bool{false, true} {
				cfg := cfgLanes(lanes)
				cfg.NoBarrier, cfg.RecordSchedule = noBarrier, true
				in, inFired := runDriven(t, g, cfg, true)
				sc, scFired := runDriven(t, g, cfg, false)
				if !reflect.DeepEqual(in, sc) || inFired != scFired {
					t.Fatalf("%s lanes=%d nobarrier=%v: inline %+v after %d events, scheduled %+v after %d",
						name, lanes, noBarrier, in.Stats, inFired, sc.Stats, scFired)
				}
			}
		}
	}
}
