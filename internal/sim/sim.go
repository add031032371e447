// Package sim provides the discrete-event simulation kernel underlying the
// gem5-Aladdin reproduction: an event queue with deterministic ordering,
// picosecond-resolution virtual time, and clock-domain helpers.
//
// All components in the SoC model (bus, DRAM, caches, DMA engine, the
// accelerator datapath) schedule work on a shared *Engine. Two events at the
// same tick fire in the order they were scheduled, which makes every
// simulation run bit-reproducible.
//
// # Queue design
//
// The queue is a hand-rolled 4-ary min-heap of concrete event structs
// ordered by (when, seq) — no container/heap, no interface boxing — plus a
// FIFO ring for events scheduled at the current tick, the dominant pattern
// in the SoC model (bus grant chains, cache hit callbacks, same-cycle
// wakeups). Scheduling and dispatch are allocation-free in steady state:
// the only allocations are amortized slice growth while the queue warms up.
// Popped slots are cleared so retired callbacks become collectable instead
// of lingering in the slice's spare capacity. Components with recurring
// callbacks (tick loops) pre-bind them once via NewEvent and reschedule the
// handle, so the hot loop allocates no closures either.
package sim

import (
	"fmt"

	"gem5aladdin/internal/obs"
)

// Tick is a point in virtual time. One tick is one picosecond, which lets
// non-commensurate clock domains (e.g. a 667 MHz CPU and a 100 MHz
// accelerator) coexist without rounding drift over the lengths of run this
// simulator targets.
type Tick uint64

// Common durations expressed in ticks.
const (
	Picosecond  Tick = 1
	Nanosecond  Tick = 1000
	Microsecond Tick = 1000 * 1000
	Millisecond Tick = 1000 * 1000 * 1000
)

// MaxTick is the largest representable point in virtual time (~5.3 years).
const MaxTick Tick = ^Tick(0)

// Nanos reports t as a floating-point nanosecond count, for reporting.
func (t Tick) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// Micros reports t as a floating-point microsecond count, for reporting.
func (t Tick) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the tick as nanoseconds.
func (t Tick) String() string { return fmt.Sprintf("%.1fns", t.Nanos()) }

// event is one scheduled callback. Events are stored by value in the heap
// and FIFO ring; nothing about them escapes to the garbage collector beyond
// the fn closure itself.
type event struct {
	when Tick
	seq  uint64 // tie-break within the heap: schedule order
	fn   func()
}

// Event is a pre-bound callback that can be scheduled repeatedly without
// allocating. Recurring activities — the datapath tick loop, DRAM bank
// service, bus release, the background traffic generator — construct one
// Event up front and pass it to Engine.ScheduleEvent/AfterEvent each round,
// instead of rebuilding an equivalent closure per occurrence.
type Event struct {
	fn func()
}

// NewEvent binds fn into a reusable scheduling handle.
func NewEvent(fn func()) *Event { return &Event{fn: fn} }

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now Tick
	seq uint64

	// heap is a 4-ary min-heap ordered by (when, seq). It never contains
	// an event with when == now: those are routed to the FIFO ring, so any
	// heap entry tied with a FIFO entry on time was necessarily scheduled
	// earlier and must fire first.
	heap []event

	// fifo is a power-of-two ring of events scheduled at the current tick,
	// fired in schedule order before time advances.
	fifo     []event
	fifoHead int
	fifoLen  int
	fired    uint64
	probe    *obs.Probe

	// watches and abortErr belong to the no-progress watchdog (watchdog.go).
	// abortErr is sticky: once set, Run and RunGuarded stop before the next
	// event dispatch.
	watches  []Watch
	abortErr error

	// running is set while Run or RunGuarded drives the engine, and budget
	// is RunGuarded's tick budget (0 for none): Advance takes a step only
	// when the loop driving it would have dispatched that step next.
	running bool
	budget  Tick
}

// NewEngine returns an empty simulation engine at tick 0.
func NewEngine() *Engine { return &Engine{} }

// Reset rewinds the engine to an empty queue at tick 0, keeping the heap and
// ring capacities. Pending event slots are cleared so their callbacks become
// collectable. Watches, the probe, and any abort error are dropped too: a
// reset engine is indistinguishable from a new one (same tick, same sequence
// numbering, hence bit-identical event ordering), except that it does not
// pay the queue's warm-up allocations again. Sweep runners reuse one engine
// across design points with it.
func (e *Engine) Reset() {
	clear(e.heap)
	e.heap = e.heap[:0]
	clear(e.fifo)
	e.fifoHead, e.fifoLen = 0, 0
	e.now, e.seq, e.fired = 0, 0, 0
	e.probe = nil
	clear(e.watches)
	e.watches = e.watches[:0]
	e.abortErr = nil
	e.running, e.budget = false, 0
}

// Now returns the current virtual time.
func (e *Engine) Now() Tick { return e.now }

// EventsFired reports how many events have executed, for instrumentation.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending reports how many events are waiting to fire.
func (e *Engine) Pending() int { return len(e.heap) + e.fifoLen }

// SetProbe attaches an observability probe that, when enabled, receives
// one instant event per executed simulation event. With no listeners the
// cost in Step is a single branch (see BenchmarkEngineDispatch*).
func (e *Engine) SetProbe(p *obs.Probe) { e.probe = p }

// RegisterStats registers the engine's counters under prefix.
func (e *Engine) RegisterStats(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+".events_fired", "simulation events executed", e.EventsFired)
	reg.CounterFunc(prefix+".ticks", "final virtual time in ticks (ps)",
		func() uint64 { return uint64(e.now) })
}

// Schedule runs fn at absolute time when. Scheduling in the past panics:
// it always indicates a component bug.
func (e *Engine) Schedule(when Tick, fn func()) {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", when, e.now))
	}
	e.seq++
	if when == e.now {
		e.fifoPush(event{when: when, seq: e.seq, fn: fn})
		return
	}
	e.heapPush(event{when: when, seq: e.seq, fn: fn})
}

// After runs fn delta ticks from now. A delta that would overflow virtual
// time panics, like scheduling in the past does: both indicate a component
// computing a nonsensical latency.
func (e *Engine) After(delta Tick, fn func()) {
	when := e.now + delta
	if when < e.now {
		panic(fmt.Sprintf("sim: delta %d ticks from %v overflows virtual time", uint64(delta), e.now))
	}
	e.Schedule(when, fn)
}

// ScheduleEvent runs a pre-bound Event at absolute time when. It is
// Schedule without the per-call closure: the handle's callback was
// allocated once at construction.
func (e *Engine) ScheduleEvent(when Tick, ev *Event) { e.Schedule(when, ev.fn) }

// AfterEvent runs a pre-bound Event delta ticks from now.
func (e *Engine) AfterEvent(delta Tick, ev *Event) { e.After(delta, ev.fn) }

// NextEventTime reports when the earliest pending event fires; ok is false
// when the queue is empty.
func (e *Engine) NextEventTime() (when Tick, ok bool) {
	if e.fifoLen > 0 {
		// FIFO entries always live at the current tick.
		return e.now, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].when, true
	}
	return 0, false
}

// Step fires the single earliest pending event and reports whether one fired.
func (e *Engine) Step() bool {
	var ev event
	// A heap entry at the current tick was scheduled before any FIFO entry
	// (the FIFO only receives events scheduled while now already equals
	// their time), so the heap drains first on ties.
	if e.fifoLen > 0 && (len(e.heap) == 0 || e.heap[0].when > e.now) {
		ev = e.fifoPop()
	} else if len(e.heap) > 0 {
		ev = e.heapPop()
	} else {
		return false
	}
	e.now = ev.when
	e.fired++
	if e.probe.Enabled() {
		e.probe.Fire(obs.Event{Name: "event", Start: uint64(e.now), End: uint64(e.now)})
	}
	ev.fn()
	return true
}

// Run fires events until the queue drains and returns the final time. Run
// ignores Abort so the dispatch loop stays a single call per event; callers
// whose components can abort (or that want stall detection) must use
// RunGuarded, which checks the abort flag between events.
func (e *Engine) Run() Tick {
	e.running = true
	defer e.stopped()
	for e.Step() {
	}
	return e.now
}

// stopped ends Run's or RunGuarded's hold on the engine, so that Advance
// refuses steps under Step and RunUntil.
func (e *Engine) stopped() { e.running, e.budget = false, 0 }

// Advance lets the running callback take its next event, due at when,
// inline instead of scheduling it. The step is taken only when it would be
// the next dispatch anyway: no other event is due at or before it, in the
// heap or the same-tick FIFO; no probe is listening and no abort is
// pending; and Run or RunGuarded drives the engine, with the step passing
// RunGuarded's budget check. The step moves the clock to when and consumes
// one sequence number and one EventsFired, exactly as scheduling and
// dispatching it would, so taking it inline changes neither the order of
// any event nor what the watchdog reports. Advance reports whether it took
// the step; if not, the caller schedules the event, if it still wants it.
func (e *Engine) Advance(when Tick) bool {
	if !e.running || e.fifoLen > 0 || e.abortErr != nil || e.probe.Enabled() ||
		when < e.now || len(e.heap) > 0 && e.heap[0].when <= when ||
		e.budget != 0 && e.now > e.budget {
		return false
	}
	e.now = when
	e.seq++
	e.fired++
	return true
}

// RunUntil fires events with time <= deadline. Events beyond the deadline
// stay queued; the engine's clock advances to at most deadline.
func (e *Engine) RunUntil(deadline Tick) {
	for {
		next, ok := e.NextEventTime()
		if !ok || next > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// --- same-tick FIFO ring ---

func (e *Engine) fifoPush(ev event) {
	if e.fifoLen == len(e.fifo) {
		e.fifoGrow()
	}
	e.fifo[(e.fifoHead+e.fifoLen)&(len(e.fifo)-1)] = ev
	e.fifoLen++
}

func (e *Engine) fifoPop() event {
	ev := e.fifo[e.fifoHead]
	// Clear the vacated slot so the callback is collectable once it has
	// run; otherwise it stays reachable through the ring until overwritten.
	e.fifo[e.fifoHead] = event{}
	e.fifoHead = (e.fifoHead + 1) & (len(e.fifo) - 1)
	e.fifoLen--
	return ev
}

func (e *Engine) fifoGrow() {
	n := len(e.fifo) * 2
	if n == 0 {
		n = 16
	}
	grown := make([]event, n)
	for i := 0; i < e.fifoLen; i++ {
		grown[i] = e.fifo[(e.fifoHead+i)&(len(e.fifo)-1)]
	}
	e.fifo = grown
	e.fifoHead = 0
}

// --- 4-ary min-heap ---
//
// A 4-ary layout halves tree depth versus binary, trading slightly more
// sibling comparisons per level for fewer cache-missing levels — the right
// trade for the shallow-but-hot queues this simulator runs (tens to a few
// thousand pending events). Children of i live at 4i+1..4i+4.

// less orders events by (when, seq).
func less(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev event) {
	e.heap = append(e.heap, ev)
	// Sift up.
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !less(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the moved slot's callback reference
	h = h[:n]
	e.heap = h
	// Sift down.
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(&h[c], &h[min]) {
				min = c
			}
		}
		if !less(&h[min], &h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// Clock describes a clock domain with a fixed period.
type Clock struct {
	Period Tick // ticks per cycle
}

// NewClockHz builds a clock from a frequency in hertz.
func NewClockHz(hz float64) Clock {
	if hz <= 0 {
		panic("sim: non-positive clock frequency")
	}
	return Clock{Period: Tick(1e12/hz + 0.5)}
}

// Cycles converts a cycle count to ticks.
func (c Clock) Cycles(n uint64) Tick { return Tick(n) * c.Period }

// CyclesAt reports how many full cycles have elapsed at time t.
func (c Clock) CyclesAt(t Tick) uint64 { return uint64(t / c.Period) }

// NextEdge returns the first clock edge at or after t.
func (c Clock) NextEdge(t Tick) Tick {
	if r := t % c.Period; r != 0 {
		return t + c.Period - r
	}
	return t
}

// CyclesCeil reports the minimum whole cycles covering d ticks.
func (c Clock) CyclesCeil(d Tick) uint64 {
	return uint64((d + c.Period - 1) / c.Period)
}
