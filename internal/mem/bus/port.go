package bus

import (
	"fmt"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
)

// port is the part of a fabric every backend shares: the engine, the
// memory-side target and the data-path geometry, master registration and
// request validation, the fault NACK protocol, progress spreading, and the
// counters with their registry and probe wiring. Each backend embeds one and
// keeps only its arbitration, routing and timing.
type port struct {
	name    string // backend name, for panics
	eng     *sim.Engine
	target  Target
	width   uint32 // data-path bytes per cycle
	clock   sim.Clock
	masters int
	stats   Stats
	probe   *obs.Probe
	inj     *fault.Injector
	// backoffs counts transactions sitting out a post-NACK backoff: they
	// are in flight but in no queue, so the watchdog must see them.
	backoffs int
}

func newPort(name string, eng *sim.Engine, widthBits int, clock sim.Clock, target Target) port {
	if widthBits%8 != 0 || widthBits <= 0 {
		panic(fmt.Sprintf("%s: invalid width %d bits", name, widthBits))
	}
	if clock.Period == 0 {
		panic(name + ": zero clock period")
	}
	return port{name: name, eng: eng, target: target, width: uint32(widthBits / 8), clock: clock}
}

// txn is a transaction as a backend holds it: the submitted Txn with its
// target resolved, the tick it was submitted, and the NACKs it has absorbed.
type txn struct {
	Txn
	issued   sim.Tick
	attempts int
}

// kind names t's direction for diagnostics.
func (t *txn) kind() string {
	if t.Write {
		return "write"
	}
	return "read"
}

// register counts one more master and returns its id.
func (p *port) register() int {
	p.masters++
	return p.masters - 1
}

// admit validates t and stamps it for the backend. It reports false when
// there is nothing to carry: a zero-byte transaction completes at once.
func (p *port) admit(t Txn) (txn, bool) {
	if t.Master < 0 || t.Master >= p.masters {
		panic(fmt.Sprintf("%s: unknown master %d", p.name, t.Master))
	}
	if t.Progress != nil && (t.Gran == 0 || t.Write) {
		panic(fmt.Sprintf("%s: stream progress needs a read with a nonzero granularity", p.name))
	}
	if t.Bytes == 0 {
		t.Done()
		return txn{}, false
	}
	if t.Target == nil {
		t.Target = p.target
	}
	return txn{Txn: t, issued: p.eng.Now()}, true
}

// beats is the number of data-path cycles n bytes take.
func (p *port) beats(n uint32) uint64 { return uint64((n + p.width - 1) / p.width) }

// count records t as granted: one transaction, its payload, and the time it
// waited since it was submitted.
func (p *port) count(t *txn) {
	p.stats.Transactions++
	p.stats.BytesMoved += uint64(t.Bytes)
	p.stats.WaitTicks += p.eng.Now() - t.issued
}

// occupy accounts one resource occupancy window [start, start+d) and reports
// it to the probe on the given lane.
func (p *port) occupy(name string, start, d sim.Tick, lane int, bytes uint32) {
	p.stats.BusyTicks += d
	if p.probe.Enabled() {
		p.probe.Fire(obs.Event{Name: name, Start: uint64(start), End: uint64(start + d),
			Lane: int32(lane), Bytes: uint64(bytes)})
	}
}

// Admission verdicts from nack.
const (
	proceed = iota // the attempt goes ahead
	retry          // NACKed: the transaction backs off, then retries
	drop           // NACKed past the retry limit: the transaction is lost
)

// nack draws the fault injector's verdict on t's next attempt. A NACK past
// the retry limit drops t: its Done never fires, and the watchdog reports
// the stranded requester. Any other NACK owes t a retry, which the backend
// arms with backoff once the refused attempt has released what it held.
func (p *port) nack(t *txn) int {
	if !p.inj.BusNack(p.eng.Now(), t.Addr, t.attempts+1) {
		return proceed
	}
	t.attempts++
	if t.attempts > p.inj.BusRetryLimit() {
		p.inj.CountBusDrop(p.eng.Now(), t.Addr, t.attempts)
		return drop
	}
	p.backoffs++
	return retry
}

// backoff sits a NACKed transaction out the exponential backoff for its
// attempt count, then hands it back to the backend through again.
func (p *port) backoff(attempts int, again func()) {
	p.eng.After(p.inj.BusBackoff(attempts), func() {
		p.backoffs--
		p.inj.CountBusRetry()
		again()
	})
}

// spread schedules t's progress marks for the n bytes after from, which
// arrive evenly over the next window ticks: one mark at every multiple of
// t.Gran in (from, from+n], and the total once the last byte lands. A
// multiple past the end of a part that is not the last belongs to the next
// part.
func (p *port) spread(t *txn, from, n uint32, window sim.Tick) {
	end := from + n
	for cum := (from/t.Gran + 1) * t.Gran; ; cum += t.Gran {
		if cum >= end {
			if cum > end && end < t.Bytes {
				return
			}
			cum = end
		}
		frac := float64(cum-from) / float64(n)
		at := sim.Tick(float64(window)*frac + 0.5)
		mark, progress := cum, t.Progress
		p.eng.After(at, func() { progress(mark) })
		if cum == end {
			return
		}
	}
}

// Stats returns a copy of the accumulated counters.
func (p *port) Stats() Stats { return p.stats }

// AttachProbe wires an observability probe; the fabric fires one span per
// occupancy window (address phase, burst, link hop) with the master id or
// resource lane and the payload attached.
func (p *port) AttachProbe(pr *obs.Probe) { p.probe = pr }

// SetFaults attaches a fault injector (nil disables injection). An injected
// NACK refuses a fresh transaction's attempt; the master backs off
// exponentially and retries, and past the injector's retry limit the
// transaction is dropped: its Done never fires, which the no-progress
// watchdog then reports.
func (p *port) SetFaults(inj *fault.Injector) { p.inj = inj }

// RegisterStats registers the fabric counters under prefix. The set is the
// same for every backend, so dashboards and the soc stats dump are
// fabric-agnostic.
func (p *port) RegisterStats(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+".transactions", "fabric transactions granted",
		func() uint64 { return p.stats.Transactions })
	reg.CounterFunc(prefix+".bytes_moved", "bytes moved over the data path",
		func() uint64 { return p.stats.BytesMoved })
	reg.CounterFunc(prefix+".busy_ticks", "summed resource occupancy ticks",
		func() uint64 { return uint64(p.stats.BusyTicks) })
	reg.CounterFunc(prefix+".wait_ticks", "summed arbitration queuing delay",
		func() uint64 { return uint64(p.stats.WaitTicks) })
	reg.Formula(prefix+".avg_wait_ns", "mean arbitration delay per transaction",
		func() float64 {
			if p.stats.Transactions == 0 {
				return 0
			}
			return p.stats.WaitTicks.Nanos() / float64(p.stats.Transactions)
		})
}

// fifo is a queue that recycles its backing array: pops advance a head
// index instead of reslicing (which would strand capacity in front of the
// slice and force every push to reallocate), pushes compact the live region
// back to the front before growing, and vacated slots are zeroed so they do
// not retain callbacks.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// items returns the queued elements, head first.
func (f *fifo[T]) items() []T { return f.buf[f.head:] }

func (f *fifo[T]) peek() T { return f.buf[f.head] }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v
}
