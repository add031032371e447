package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"gem5aladdin/internal/obs"
)

// clockChain is a clocked component whose callback fires every period.
// Every echoEvery-th edge also schedules an echo event at its own tick.
// Scheduled, the chain schedules each next edge; inline, it takes each next
// edge it can inside the running callback (Advance) and schedules only the
// first edge refused.
type clockChain struct {
	e         *Engine
	period    Tick
	inline    bool
	echoEvery int
	edges     int
	ev        *Event
	log       *[]string
}

func (c *clockChain) fire() {
	for {
		c.edges++
		*c.log = append(*c.log, fmt.Sprintf("clk@%d", c.e.Now()))
		if c.edges%c.echoEvery == 0 {
			c.e.Schedule(c.e.Now(), func() { *c.log = append(*c.log, fmt.Sprintf("echo@%d", c.e.Now())) })
		}
		next := c.e.Now() + c.period
		if !c.inline || !c.e.Advance(next) {
			c.e.ScheduleEvent(next, c.ev)
			return
		}
	}
}

// chainRun drives a never-ending clock chain (period 7 from tick 3, so
// some edges land on a background event's tick) beside a background event
// every 45 ticks, under RunGuarded with the budget, and returns the log,
// the stall and the final sequence number.
func chainRun(t *testing.T, inline bool, budget Tick) ([]string, *StallError, uint64) {
	t.Helper()
	e := NewEngine()
	var log []string
	c := &clockChain{e: e, period: 7, inline: inline, echoEvery: 5, log: &log}
	c.ev = NewEvent(c.fire)
	var bg func()
	bg = func() {
		log = append(log, fmt.Sprintf("bg@%d", e.Now()))
		e.After(45, bg)
	}
	e.Schedule(45, bg)
	e.ScheduleEvent(3, c.ev)
	_, err := e.RunGuarded(budget)
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("inline %v: err = %v, want a budget stall", inline, err)
	}
	return log, st, e.seq
}

// TestAdvanceMatchesScheduledUnderBudget takes the same chain inline and
// scheduled. The events, their order, the sequence numbers and the budget
// abort's time, fired and pending counts must all agree.
func TestAdvanceMatchesScheduledUnderBudget(t *testing.T) {
	// At budget 190 the edge at 185 is within it and the one at 192 is
	// not due behind any other event, so only the budget check stops the
	// chain after 192.
	for _, budget := range []Tick{150, 190, 200} {
		wantLog, want, wantSeq := chainRun(t, false, budget)
		log, st, seq := chainRun(t, true, budget)
		if !reflect.DeepEqual(log, wantLog) {
			t.Fatalf("budget %d: log %v, want %v", budget, log, wantLog)
		}
		if st.Now != want.Now || st.EventsFired != want.EventsFired ||
			st.PendingEvents != want.PendingEvents || seq != wantSeq {
			t.Fatalf("budget %d: abort at %v after %d events (%d pending, seq %d), want %v after %d (%d pending, seq %d)",
				budget, st.Now, st.EventsFired, st.PendingEvents, seq,
				want.Now, want.EventsFired, want.PendingEvents, wantSeq)
		}
	}
}

// TestAdvanceRefusesDueEvents: an event already due at the step's time,
// whether at the heap head or in the same-tick FIFO, refuses the step and
// fires before it; an event after it does not.
func TestAdvanceRefusesDueEvents(t *testing.T) {
	for _, where := range []string{"heap", "fifo"} {
		e := NewEngine()
		var order []string
		took := true
		e.Schedule(10, func() {
			if where == "fifo" {
				e.Schedule(10, func() { order = append(order, "other") })
			}
			if took = e.Advance(20); !took {
				e.Schedule(20, func() { order = append(order, "step") })
			}
		})
		if where == "heap" {
			e.Schedule(20, func() { order = append(order, "other") })
		}
		e.Run()
		if took || !reflect.DeepEqual(order, []string{"other", "step"}) {
			t.Fatalf("%s: took %v, order %v; want false and [other step]", where, took, order)
		}
	}

	e := NewEngine()
	took := false
	e.Schedule(10, func() { took = e.Advance(20) })
	e.Schedule(21, func() {})
	e.Run()
	if !took {
		t.Fatal("an event at 21 refused the step at 20")
	}
}

// TestAdvanceRefusedOutsideRun: an enabled probe, a pending abort, and an
// engine driven by Step or RunUntil each refuse the step; the same request
// under Run with nothing else queued takes it.
func TestAdvanceRefusedOutsideRun(t *testing.T) {
	ask := func(e *Engine) *bool {
		took := new(bool)
		e.Schedule(10, func() { *took = e.Advance(20) })
		return took
	}

	e := NewEngine()
	took := ask(e)
	e.Run()
	if !*took || e.Now() != 20 || e.EventsFired() != 2 {
		t.Fatalf("under Run: took %v, now %v, fired %d; want true, 20, 2", *took, e.Now(), e.EventsFired())
	}

	e = NewEngine()
	p := &obs.Probe{}
	p.Listen(func(obs.Event) {})
	e.SetProbe(p)
	if took = ask(e); e.Run() != 10 || *took {
		t.Fatalf("with a probe listening: took %v", *took)
	}

	e = NewEngine()
	e.Schedule(10, func() {
		e.Abort(errors.New("stop"))
		*took = e.Advance(20)
	})
	if _, err := e.RunGuarded(0); err == nil || *took {
		t.Fatalf("with an abort pending: took %v, err %v", *took, err)
	}

	e = NewEngine()
	took = ask(e)
	e.Step()
	if *took {
		t.Fatal("under Step: took the step")
	}

	e = NewEngine()
	took = ask(e)
	e.RunUntil(100)
	if *took {
		t.Fatal("under RunUntil: took the step")
	}
}

// TestAdvanceKeepsScheduleOrder: after three inline steps the sequence
// number and fired count equal the scheduled path's, and events scheduled
// at one later tick — one before the steps, two after — fire in schedule
// order.
func TestAdvanceKeepsScheduleOrder(t *testing.T) {
	run := func(inline bool) ([]string, uint64, uint64) {
		e := NewEngine()
		var log []string
		note := func(s string) func() { return func() { log = append(log, s) } }
		e.Schedule(60, note("early"))
		last := func() {
			e.Schedule(60, note("late1"))
			e.Schedule(60, note("late2"))
		}
		if inline {
			e.Schedule(10, func() {
				for _, at := range []Tick{20, 30, 40} {
					if !e.Advance(at) {
						t.Fatalf("the edge at %d was refused", at)
					}
				}
				last()
			})
		} else {
			var ev *Event
			ev = NewEvent(func() {
				if e.Now() == 40 {
					last()
					return
				}
				e.ScheduleEvent(e.Now()+10, ev)
			})
			e.ScheduleEvent(10, ev)
		}
		e.Run()
		return log, e.seq, e.fired
	}
	wantLog, wantSeq, wantFired := run(false)
	log, seq, fired := run(true)
	if !reflect.DeepEqual(log, []string{"early", "late1", "late2"}) || !reflect.DeepEqual(log, wantLog) ||
		seq != wantSeq || fired != wantFired {
		t.Fatalf("inline: %v seq %d fired %d; scheduled: %v seq %d fired %d",
			log, seq, fired, wantLog, wantSeq, wantFired)
	}
}

// TestResetClearsRunState: Reset drops the hold Run or RunGuarded has on
// the engine, so a callback refuses inline steps after a reset, even one
// dispatched by the loop that was running before it.
func TestResetClearsRunState(t *testing.T) {
	e := NewEngine()
	took := true
	e.Schedule(5, func() {
		e.Reset()
		took = e.Advance(20)
	})
	e.RunGuarded(1000)
	if took {
		t.Fatal("after a reset mid-run: took the step")
	}
	e.running, e.budget = true, 1000
	e.Reset()
	if e.running || e.budget != 0 {
		t.Fatalf("after Reset: running %v, budget %d", e.running, e.budget)
	}
}
