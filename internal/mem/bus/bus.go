package bus

import (
	"fmt"
	"strings"

	"gem5aladdin/internal/sim"
)

// Config describes a bus instance.
type Config struct {
	WidthBits int       // 32 or 64 in the paper's sweeps
	Clock     sim.Clock // bus clock domain
}

type request struct {
	txn
	// dataPhase marks a read response ready to move over the bus.
	dataPhase bool
}

// Continuation kinds for the release event: what to do with the released
// transaction once its bus occupancy elapses. Storing a kind plus the
// request in Bus fields (only one transaction holds the bus at a time)
// replaces a per-grant continuation closure.
const (
	relNone     = iota // nothing beyond re-arbitration (dropped transaction)
	relDone            // invoke the requester's completion callback
	relWrite           // hand the write to the target (posted)
	relReadAddr        // hand the read to the target; response re-arbitrates
	relFunc            // run afterRelease (rare fault-injection paths)
)

// pendingRead carries a read transaction through its target access: the
// pre-bound fn is what the target calls when data is ready, queueing the
// response's data phase. Nodes are pooled on the bus; targets may complete
// out of order, so each outstanding read needs its own node.
type pendingRead struct {
	b   *Bus
	req request
	fn  func()
}

func (p *pendingRead) complete() {
	b := p.b
	resp := p.req
	p.req = request{}
	b.readPool = append(b.readPool, p)
	resp.dataPhase = true
	b.responses.push(resp)
	b.arbitrate()
}

// Bus is a split-transaction interconnect with a configurable data width
// (the paper sweeps 32- and 64-bit widths to modulate accelerator-visible
// bandwidth) and round-robin arbitration between masters.
//
// A transaction occupies the bus for one arbitration/address cycle plus
// ceil(bytes/width) data cycles. Downstream memory latency (DRAM, or a
// remote cache supplying data) does not hold the bus: the target is handed
// the request when the address phase completes and the caller's completion
// callback fires when the target responds. This is what lets independent
// transfers pipeline at full bus bandwidth, which the DMA and cache-fill
// experiments depend on. An injected NACK refuses a fresh transaction at
// its address phase, which still holds the bus for that one cycle.
type Bus struct {
	port

	queues    []fifo[request] // per-master FIFO
	responses fifo[request]   // read responses awaiting their data phase
	rrNext    int             // next master to consider
	granted   bool            // a transaction currently holds the bus

	// releaseEv fires when the granted transaction's occupancy elapses.
	// Only one transaction holds the bus at a time, so a single pre-bound
	// event plus (relKind, relReq) replace a per-grant closure.
	releaseEv    *sim.Event
	relKind      int
	relReq       request
	afterRelease func() // relFunc continuation (fault paths only)

	readPool []*pendingRead // recycled outstanding-read nodes
}

// New creates a bus attached to eng, delivering transactions to target.
func New(eng *sim.Engine, cfg Config, target Target) *Bus {
	b := &Bus{port: newPort("bus", eng, cfg.WidthBits, cfg.Clock, target)}
	b.releaseEv = sim.NewEvent(b.release)
	return b
}

// release ends the granted transaction's bus occupancy, runs its
// continuation, and re-arbitrates.
func (b *Bus) release() {
	b.granted = false
	kind := b.relKind
	req := b.relReq
	b.relKind = relNone
	b.relReq = request{}
	switch kind {
	case relDone:
		req.Done()
	case relWrite:
		req.Target.Access(req.Addr, req.Bytes, true, req.Done)
	case relReadAddr:
		req.Target.Access(req.Addr, req.Bytes, false, b.pendingFor(req))
	case relFunc:
		then := b.afterRelease
		b.afterRelease = nil
		then()
	}
	b.arbitrate()
}

// pendingFor checks out a pooled read node for req and returns its
// pre-bound response callback.
func (b *Bus) pendingFor(req request) func() {
	var p *pendingRead
	if n := len(b.readPool); n > 0 {
		p = b.readPool[n-1]
		b.readPool[n-1] = nil
		b.readPool = b.readPool[:n-1]
	} else {
		p = &pendingRead{b: b}
		p.fn = p.complete
	}
	p.req = req
	return p.fn
}

// RegisterMaster allocates an arbitration slot and returns its id.
func (b *Bus) RegisterMaster() int {
	b.queues = append(b.queues, fifo[request]{})
	return b.register()
}

// InFlight counts transactions the bus is still holding: queued, awaiting a
// data phase, in a backoff delay, or currently granted. It feeds the
// no-progress watchdog.
func (b *Bus) InFlight() int {
	n := b.responses.len() + b.backoffs
	for i := range b.queues {
		n += b.queues[i].len()
	}
	if b.granted {
		n++
	}
	return n
}

// DumpInFlight renders the queue state for a watchdog diagnostic.
func (b *Bus) DumpInFlight() string {
	var s strings.Builder
	fmt.Fprintf(&s, "granted=%v responses=%d backoffs=%d", b.granted, b.responses.len(), b.backoffs)
	for m := range b.queues {
		q := &b.queues[m]
		if q.len() == 0 {
			continue
		}
		fmt.Fprintf(&s, "\nmaster%d queue:", m)
		for _, r := range q.items() {
			fmt.Fprintf(&s, " %s@%#x(%dB,issued %v)", r.kind(), r.Addr, r.Bytes, r.issued)
		}
	}
	return s.String()
}

// OccupancyTicks reports how long a transaction of n bytes holds the bus.
func (b *Bus) OccupancyTicks(n uint32) sim.Tick {
	return b.clock.Cycles(1 + b.beats(n))
}

// Submit enqueues t on its master's queue.
func (b *Bus) Submit(t Txn) {
	tx, ok := b.admit(t)
	if !ok {
		return
	}
	b.queues[t.Master].push(request{txn: tx})
	if !b.granted {
		b.arbitrate()
	}
}

// arbitrate grants the bus to the next waiter. Read responses have priority
// over new requests (as on AXI-class interconnects, the response channel
// drains first) and drain in completion order; fresh requests are served
// round-robin across masters.
func (b *Bus) arbitrate() {
	if b.granted {
		return
	}
	if b.responses.len() > 0 {
		b.grant(b.responses.pop())
		return
	}
	n := len(b.queues)
	for i := 0; i < n; i++ {
		m := (b.rrNext + i) % n
		if b.queues[m].len() == 0 {
			continue
		}
		req := b.queues[m].pop()
		b.rrNext = (m + 1) % n
		b.grant(req)
		return
	}
}

func (b *Bus) grant(req request) {
	b.granted = true
	// Read responses are never NACKed: their address phase already
	// succeeded.
	if !req.dataPhase {
		if v := b.nack(&req.txn); v != proceed {
			b.refuse(req, v)
			return
		}
	}
	b.dispatch(req)
}

// refuse spends a NACKed address phase's bus cycle, after which the master
// sits out its backoff and re-arbitrates from the back of its queue, or the
// transaction is dropped.
func (b *Bus) refuse(req request, verdict int) {
	if verdict == drop {
		b.releasePhase(req, b.clock.Cycles(1), "bus-drop", relNone, nil)
		return
	}
	b.releasePhase(req, b.clock.Cycles(1), "bus-nack", relFunc, func() {
		b.backoff(req.attempts, func() {
			b.queues[req.Master].push(req)
			if !b.granted {
				b.arbitrate()
			}
		})
	})
}

// releasePhase accounts one bus occupancy window and schedules the release
// with its continuation kind.
func (b *Bus) releasePhase(req request, after sim.Tick, phase string, kind int, then func()) {
	b.occupy(phase, b.eng.Now(), after, req.Master, req.Bytes)
	b.relKind = kind
	b.relReq = req
	b.afterRelease = then
	b.eng.AfterEvent(after, b.releaseEv)
}

// dispatch moves a granted transaction through its bus phases.
func (b *Bus) dispatch(req request) {
	dataTicks := b.clock.Cycles(b.beats(req.Bytes))
	switch {
	case req.dataPhase:
		// Read response: data beats only.
		if req.Progress != nil {
			b.spread(&req.txn, 0, req.Bytes, dataTicks)
		}
		b.releasePhase(req, dataTicks, "read-data", relDone, nil)

	case req.Write:
		// Write: address + data move together; the target accepts the
		// data afterwards (posted write). done fires when accepted.
		b.count(&req.txn)
		b.releasePhase(req, b.clock.Cycles(1)+dataTicks, "write", relWrite, nil)

	default:
		// Read: address phase holds the bus one cycle, then the bus is
		// free while the target services the request; the response
		// re-arbitrates for its data phase.
		b.count(&req.txn)
		b.releasePhase(req, b.clock.Cycles(1), "read-addr", relReadAddr, nil)
	}
}
