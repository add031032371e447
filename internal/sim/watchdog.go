// Watchdog: the engine's no-progress guard. A discrete-event simulator has
// two silent failure modes — the queue drains while components still hold
// in-flight work (a lost callback: the run "completes" with wrong results),
// and the queue never drains (a livelock: the run hangs). RunGuarded turns
// both into a structured *StallError listing every component's stuck state,
// instead of a hang or a misleading partial result.
//
// Components register a Watch describing how to count and dump their
// in-flight work (MSHRs, bus queues, DMA descriptors). Watches are only
// consulted when the queue quiesces or a budget expires, so registering
// them costs nothing on the event hot path.

package sim

import (
	"fmt"
	"log/slog"
	"strings"
)

// Watch describes one component's in-flight state for the watchdog.
type Watch struct {
	// Name identifies the component in diagnostics (e.g. "bus", "accel0.dma").
	Name string
	// InFlight reports how many operations the component is holding that
	// must complete before the simulation can legitimately end.
	InFlight func() int
	// Dump renders the in-flight operations for the diagnostic; it may be
	// nil when InFlight alone is informative enough.
	Dump func() string
}

// StallItem is one stuck component in a StallError.
type StallItem struct {
	Name     string
	InFlight int
	Dump     string
}

// StallError is the watchdog's structured diagnostic: why the run was
// aborted, when, and every registered component still holding work.
type StallError struct {
	// Reason is "quiesced with work in flight" or "tick budget exceeded".
	Reason string
	// Now is the virtual time of the abort.
	Now Tick
	// EventsFired is the engine's event count at the abort.
	EventsFired uint64
	// PendingEvents counts events still queued (nonzero for budget aborts).
	PendingEvents int
	// Items lists each watched component with in-flight work.
	Items []StallItem
}

// LogValue renders the stall as a structured log group, so services that
// log a stalled design point get queryable fields (reason, tick, per-item
// in-flight counts) instead of a flattened multi-line string.
func (e *StallError) LogValue() slog.Value {
	attrs := []slog.Attr{
		slog.String("reason", e.Reason),
		slog.Uint64("tick", uint64(e.Now)),
		slog.Uint64("events_fired", e.EventsFired),
		slog.Int("events_pending", e.PendingEvents),
	}
	for _, it := range e.Items {
		attrs = append(attrs, slog.Int("inflight."+it.Name, it.InFlight))
	}
	return slog.GroupValue(attrs...)
}

// Error renders the multi-line diagnostic.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: no progress: %s at %v after %d events (%d events pending)",
		e.Reason, e.Now, e.EventsFired, e.PendingEvents)
	for _, it := range e.Items {
		fmt.Fprintf(&b, "\n  %s: %d in flight", it.Name, it.InFlight)
		if it.Dump != "" {
			for _, line := range strings.Split(strings.TrimRight(it.Dump, "\n"), "\n") {
				fmt.Fprintf(&b, "\n    %s", line)
			}
		}
	}
	return b.String()
}

// AddWatch registers a component with the watchdog. Watches persist for the
// engine's lifetime and are consulted only at quiesce or budget expiry.
func (e *Engine) AddWatch(w Watch) {
	if w.InFlight == nil {
		panic("sim: watch without an InFlight func")
	}
	e.watches = append(e.watches, w)
}

// Abort requests that RunGuarded stop before dispatching another event,
// reporting err. The first abort wins; later calls are ignored. Components
// that detect unrecoverable corruption (the MOESI sanitizer, the DMA
// engine's retry-exhaustion path) use it to fail fast without panicking
// across the event loop. Plain Run ignores aborts to keep its dispatch loop
// free of per-event checks.
func (e *Engine) Abort(err error) {
	if e.abortErr == nil {
		e.abortErr = err
	}
}

// Err returns the abort error, if any.
func (e *Engine) Err() error { return e.abortErr }

// stalled collects every watched component with in-flight work.
func (e *Engine) stalled() []StallItem {
	var items []StallItem
	for _, w := range e.watches {
		n := w.InFlight()
		if n <= 0 {
			continue
		}
		it := StallItem{Name: w.Name, InFlight: n}
		if w.Dump != nil {
			it.Dump = w.Dump()
		}
		items = append(items, it)
	}
	return items
}

// stallError assembles a StallError for the current engine state.
func (e *Engine) stallError(reason string) *StallError {
	return &StallError{Reason: reason, Now: e.now, EventsFired: e.fired,
		PendingEvents: e.Pending(), Items: e.stalled()}
}

// RunGuarded fires events until the queue drains, an Abort is requested,
// or — when budget is nonzero — virtual time exceeds budget. It returns the
// final time plus an error when the run did not complete cleanly:
//
//   - the abort error passed to Abort, or
//   - a *StallError when the budget expired with events still pending
//     (livelock guard), or
//   - a *StallError when the queue quiesced while a registered Watch still
//     reported in-flight work (lost-callback guard).
//
// A clean drain with no in-flight work returns a nil error, with behavior
// (event order, final time) identical to Run. See Advance for the steps a
// callback takes inline.
func (e *Engine) RunGuarded(budget Tick) (Tick, error) {
	e.running, e.budget = true, budget
	defer e.stopped()
	for e.abortErr == nil {
		if budget != 0 && e.now > budget {
			return e.now, e.stallError(fmt.Sprintf("tick budget %d exceeded", uint64(budget)))
		}
		if !e.Step() {
			break
		}
	}
	if e.abortErr != nil {
		return e.now, e.abortErr
	}
	if items := e.stalled(); len(items) > 0 {
		err := e.stallError("event queue quiesced with work in flight")
		err.PendingEvents = 0
		return e.now, err
	}
	return e.now, nil
}
