package sim

import (
	"testing"

	"gem5aladdin/internal/obs"
)

// chainEvents schedules n self-rescheduling events and drains the engine,
// exercising the Step hot path.
func chainEvents(e *Engine, n int) {
	remaining := n
	var step func()
	step = func() {
		remaining--
		if remaining > 0 {
			e.After(Nanosecond, step)
		}
	}
	e.After(Nanosecond, step)
	e.Run()
}

// BenchmarkEngineDispatchBare measures event dispatch with no probe
// attached — the baseline every configuration without -trace-out pays.
func BenchmarkEngineDispatchBare(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	chainEvents(e, b.N)
}

// BenchmarkEngineDispatchProbeDisabled measures dispatch with a probe
// attached but no listeners subscribed: the guard must reduce to a single
// branch, so this should track the bare benchmark within noise (the <2%
// overhead budget for tracing-disabled runs).
func BenchmarkEngineDispatchProbeDisabled(b *testing.B) {
	e := NewEngine()
	e.SetProbe(&obs.Probe{})
	b.ReportAllocs()
	chainEvents(e, b.N)
}

// BenchmarkEngineDispatchProbeEnabled measures dispatch with a live
// listener, bounding what -trace-out costs per event.
func BenchmarkEngineDispatchProbeEnabled(b *testing.B) {
	e := NewEngine()
	p := &obs.Probe{}
	var sink uint64
	p.Listen(func(ev obs.Event) { sink += ev.Start })
	e.SetProbe(p)
	b.ReportAllocs()
	chainEvents(e, b.N)
	_ = sink
}

// TestSteadyStateZeroAllocsPerEvent gates the tentpole guarantee: once the
// queue's backing storage has warmed up, scheduling and dispatching events
// through pre-bound handles allocates nothing.
func TestSteadyStateZeroAllocsPerEvent(t *testing.T) {
	e := NewEngine()
	remaining := 0
	var ev *Event
	ev = NewEvent(func() {
		remaining--
		if remaining > 0 {
			e.AfterEvent(Nanosecond, ev)
		}
	})
	run := func(n int) {
		remaining = n
		e.AfterEvent(Nanosecond, ev)
		e.Run()
	}
	run(10000) // warm the heap and FIFO capacity
	if allocs := testing.AllocsPerRun(10, func() { run(1000) }); allocs != 0 {
		t.Fatalf("steady-state dispatch allocates: %.1f allocs per 1000 events, want 0", allocs)
	}
}

// TestDisabledProbeAddsNoAllocations pins the disabled-probe guarantee
// deterministically (benchmarks can be noisy in CI): firing thousands of
// events through an attached-but-listenerless probe must allocate nothing
// beyond what the bare engine allocates for its own event heap.
func TestDisabledProbeAddsNoAllocations(t *testing.T) {
	run := func(p *obs.Probe) float64 {
		return testing.AllocsPerRun(10, func() {
			e := NewEngine()
			e.SetProbe(p)
			chainEvents(e, 1000)
		})
	}
	bare := run(nil)
	disabled := run(&obs.Probe{})
	if disabled > bare {
		t.Fatalf("disabled probe allocates: %.1f allocs/run vs %.1f bare", disabled, bare)
	}
}
