package bus

import (
	"fmt"
	"strings"

	"gem5aladdin/internal/sim"
)

// Config describes the system bus.
type Config struct {
	WidthBits int       // 32 or 64 in the paper's sweeps
	Clock     sim.Clock // bus clock domain
}

// CrossbarConfig describes an AXI-like burst-based crossbar: every master
// owns an independent request/response channel pair, slaves are address
// interleaved banks of the memory-side target, and any master↔slave route
// that does not conflict with another active route proceeds in parallel.
type CrossbarConfig struct {
	WidthBits int       // per-route data width
	Clock     sim.Clock // fabric clock domain
	// Slaves is the number of address-interleaved slave ports (parallel
	// routes to the memory side). Defaults to 4.
	Slaves int
	// BurstBeats caps the data beats a route carries per burst before the
	// slave re-arbitrates (AXI burst length). Long transfers are split into
	// bursts so other masters can interleave on a shared slave. Defaults
	// to 16.
	BurstBeats int
}

// xreq is a crossbar transaction. It carries a burst cursor (sent) because
// a transfer releases its route between bursts. Nodes are pooled on the
// crossbar; targets may complete reads out of order, so each outstanding
// read holds its own node.
type xreq struct {
	txn
	sent  uint32 // bytes already moved across the fabric
	slave int
	// dataPhase marks a read response draining data beats back to the
	// master.
	dataPhase bool

	x     *Crossbar
	ready func() // pre-bound dataReady, the read's target callback
}

// dataReady queues a read's response once its target has the data.
func (r *xreq) dataReady() {
	r.dataPhase = true
	r.x.respQueue(r.Master).push(r)
	r.x.arbitrate()
}

type xbarMaster struct {
	reqs  fifo[*xreq] // fresh requests, in order; the head stays put while granted
	resps fifo[*xreq] // read responses draining back; the head stays put while granted
	busy  bool        // master channel currently granted to a route
}

// xbarSlave is one slave port. Only one route holds it at a time, so the
// port keeps the granted transfer and its phase, and a pre-bound release
// event, in place of a continuation closure per grant.
type xbarSlave struct {
	rrNext  int    // round-robin start master for this slave's arbitration
	cur     *xreq  // the transfer holding the port; nil when idle
	phase   int    // cur's route phase
	sent    uint32 // bytes cur's burst moves
	release *sim.Event
}

// Route phases. Each names its occupancy span and says what the route's
// release does with the transfer.
const (
	readAddr  = iota // hand the read to its target; the response queues for its data
	writeData        // after the last burst, hand the posted write to its target
	readData         // after the last burst, complete the read
	nacked           // back off, then requeue at the back of the channel
	dropped          // NACKed past the retry limit: the transfer is lost
)

// Span names per route phase: the crossbar's, and the bus's.
var (
	xbarSpans = [...]string{"xbar-read-addr", "xbar-write", "xbar-read-data", "xbar-nack", "xbar-drop"}
	busSpans  = [...]string{"read-addr", "write", "read-data", "bus-nack", "bus-drop"}
)

// Crossbar is an AXI-like burst-based interconnect: per-master channel
// pairs, address-interleaved slave ports, and parallel non-conflicting
// routes. A route (master channel + slave port) is held for one burst —
// an address cycle plus up to BurstBeats data cycles — then re-arbitrates,
// so long DMA transfers interleave with latency-sensitive cache fills
// instead of monopolizing the memory side. An injected NACK refuses a
// fresh transaction at its first address phase, which still holds the
// route for that one cycle.
type Crossbar struct {
	port
	burstBytes uint32 // payload cap of one burst

	masters []xbarMaster
	slaves  []xbarSlave
	pool    []*xreq // recycled transaction nodes

	// bus marks the system bus New builds. Its read responses wait in
	// drain, one completion-order queue, and its spans and in-flight dump
	// keep the bus's names, sizes and format.
	bus   bool
	drain fifo[*xreq]
}

// New creates the system bus attached to eng, delivering transactions to
// target: the paper's split-transaction interconnect with a configurable
// data width (its sweeps use 32 and 64 bits to modulate accelerator-visible
// bandwidth) and round-robin arbitration between masters.
//
// The bus is a crossbar with one slave port that never splits a transfer.
// A transaction holds it for one arbitration/address cycle plus
// ceil(bytes/width) data cycles. Downstream memory latency does not hold
// the bus: the target gets a read when its address phase completes, and
// the response re-arbitrates for its data phase. This lets independent
// transfers pipeline at full bus bandwidth, which the DMA and cache-fill
// experiments depend on. Unlike a crossbar's per-master response channels,
// the bus drains read responses in the order they complete.
func New(eng *sim.Engine, cfg Config, target Target) *Crossbar {
	x := crossbarOn(newPort("bus", eng, cfg.WidthBits, cfg.Clock, target), 1, ^uint32(0))
	x.bus = true
	return x
}

// NewCrossbar creates a crossbar attached to eng, delivering transactions
// to target.
func NewCrossbar(eng *sim.Engine, cfg CrossbarConfig, target Target) *Crossbar {
	p := newPort("crossbar", eng, cfg.WidthBits, cfg.Clock, target)
	if cfg.Slaves == 0 {
		cfg.Slaves = 4
	}
	if cfg.Slaves < 1 {
		panic(fmt.Sprintf("crossbar: invalid slave count %d", cfg.Slaves))
	}
	if cfg.BurstBeats == 0 {
		cfg.BurstBeats = 16
	}
	if cfg.BurstBeats < 1 {
		panic(fmt.Sprintf("crossbar: invalid burst length %d", cfg.BurstBeats))
	}
	return crossbarOn(p, cfg.Slaves, uint32(cfg.BurstBeats)*p.width)
}

// crossbarOn builds a crossbar over p with the given number of slave ports
// and payload cap per burst.
func crossbarOn(p port, slaves int, burstBytes uint32) *Crossbar {
	x := &Crossbar{port: p, burstBytes: burstBytes, slaves: make([]xbarSlave, slaves)}
	for s := range x.slaves {
		sl := &x.slaves[s]
		sl.release = sim.NewEvent(func() { x.release(sl) })
	}
	return x
}

// slaveOf interleaves the address space across slave ports at 4KiB
// granularity (matching DRAM bank interleave scale, so streams spread).
func (x *Crossbar) slaveOf(addr uint64) int {
	return int((addr >> 12) % uint64(len(x.slaves)))
}

// respQueue is the queue master m's read responses wait in.
func (x *Crossbar) respQueue(m int) *fifo[*xreq] {
	if x.bus {
		return &x.drain
	}
	return &x.masters[m].resps
}

// node checks a transaction node for t out of the pool.
func (x *Crossbar) node(t txn) *xreq {
	var r *xreq
	if n := len(x.pool); n > 0 {
		r = x.pool[n-1]
		x.pool = x.pool[:n-1]
	} else {
		r = &xreq{x: x}
		r.ready = r.dataReady
	}
	r.txn, r.slave = t, x.slaveOf(t.Addr)
	return r
}

// free returns a finished transaction's node to the pool. A Done may
// Submit and take the node straight back out, so callers copy what they
// still need first.
func (x *Crossbar) free(r *xreq) {
	r.txn, r.sent, r.dataPhase = txn{}, 0, false
	x.pool = append(x.pool, r)
}

// RegisterMaster allocates a master channel pair and returns its id.
func (x *Crossbar) RegisterMaster() int {
	x.masters = append(x.masters, xbarMaster{})
	return x.register()
}

// InFlight counts transactions the crossbar still holds: queued on a
// channel (a granted one stays at its queue's head until its route
// releases) or backing off.
func (x *Crossbar) InFlight() int {
	n := x.backoffs + x.drain.len()
	for i := range x.masters {
		n += x.masters[i].reqs.len() + x.masters[i].resps.len()
	}
	return n
}

// DumpInFlight renders the queue state for a watchdog diagnostic.
func (x *Crossbar) DumpInFlight() string {
	if x.bus {
		return x.dumpBus()
	}
	granted := 0
	for _, sl := range x.slaves {
		if sl.cur != nil {
			granted++
		}
	}
	var s strings.Builder
	fmt.Fprintf(&s, "granted=%d backoffs=%d", granted, x.backoffs)
	for m := range x.masters {
		ms := &x.masters[m]
		if ms.reqs.len() == 0 && ms.resps.len() == 0 {
			continue
		}
		fmt.Fprintf(&s, "\nmaster%d busy=%v reqs=%d resps=%d:", m, ms.busy, ms.reqs.len(), ms.resps.len())
		for _, r := range ms.reqs.items() {
			fmt.Fprintf(&s, " %s@%#x(%d/%dB,slave%d,issued %v)",
				r.kind(), r.Addr, r.sent, r.Bytes, r.slave, r.issued)
		}
	}
	return s.String()
}

// dumpBus renders the bus's queue state in its own format, which counts
// the granted transfer apart from the queues it waits in.
func (x *Crossbar) dumpBus() string {
	g := x.slaves[0].cur
	waiting := func(q []*xreq) []*xreq {
		if len(q) > 0 && q[0] == g {
			return q[1:]
		}
		return q
	}
	var s strings.Builder
	fmt.Fprintf(&s, "granted=%v responses=%d backoffs=%d", g != nil, len(waiting(x.drain.items())), x.backoffs)
	for m := range x.masters {
		q := waiting(x.masters[m].reqs.items())
		if len(q) == 0 {
			continue
		}
		fmt.Fprintf(&s, "\nmaster%d queue:", m)
		for _, r := range q {
			fmt.Fprintf(&s, " %s@%#x(%dB,issued %v)", r.kind(), r.Addr, r.Bytes, r.issued)
		}
	}
	return s.String()
}

// Submit enqueues t on its master's request channel.
func (x *Crossbar) Submit(t Txn) {
	tx, ok := x.admit(t)
	if !ok {
		return
	}
	x.masters[t.Master].reqs.push(x.node(tx))
	x.arbitrate()
}

// arbitrate fills every idle slave port with the next eligible transfer.
// Responses drain first (AXI response channels are independent and drain
// ahead of fresh addresses); fresh requests are served round-robin across
// masters per slave. Only queue heads are eligible: each master channel is
// in-order, so a head mid-transfer blocks that channel's later requests
// (head-of-line, as on a real in-order master port).
func (x *Crossbar) arbitrate() {
	for s := range x.slaves {
		if x.slaves[s].cur != nil {
			continue
		}
		if r := x.pickFor(s); r != nil {
			x.grant(r)
		}
	}
}

// pickFor selects the next transfer for slave s, or nil. The bus's
// completion-order queue goes first; otherwise it is round-robin over
// masters starting at the slave's rrNext, and responses win over requests.
func (x *Crossbar) pickFor(s int) *xreq {
	if x.drain.len() > 0 {
		return x.drain.peek()
	}
	n := len(x.masters)
	sl := &x.slaves[s]
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			m := (sl.rrNext + i) % n
			ms := &x.masters[m]
			if ms.busy {
				continue
			}
			q := &ms.reqs
			if pass == 0 {
				q = &ms.resps
			}
			if q.len() == 0 || q.peek().slave != s {
				continue
			}
			sl.rrNext = (m + 1) % n
			return q.peek()
		}
	}
	return nil
}

// grant routes one burst of r through its master channel and slave port.
// r stays at the head of its queue until the route releases.
func (x *Crossbar) grant(r *xreq) {
	if !r.dataPhase && r.sent == 0 {
		switch x.nack(&r.txn) {
		case drop:
			x.hold(r, x.clock.Cycles(1), dropped, 0)
			return
		case retry:
			x.hold(r, x.clock.Cycles(1), nacked, 0)
			return
		}
	}

	chunk := min(r.Bytes-r.sent, x.burstBytes)
	beats := x.beats(chunk)

	switch {
	case r.dataPhase:
		// Read response burst: data beats only on the response channel.
		window := x.clock.Cycles(beats)
		if r.Progress != nil {
			x.spread(&r.txn, r.sent, chunk, window)
		}
		x.hold(r, window, readData, chunk)

	case r.Write:
		// Write burst: address cycle + data beats travel together.
		if r.sent == 0 {
			x.count(&r.txn)
		}
		x.hold(r, x.clock.Cycles(1+beats), writeData, chunk)

	default:
		// Read request: a one-cycle address phase opens the transaction;
		// the route frees while the target services it, and the response
		// drains in bursts on the response channel.
		x.count(&r.txn)
		x.hold(r, x.clock.Cycles(1), readAddr, 0)
	}
}

// hold occupies r's master channel and slave port for one window of the
// given phase, moving sent bytes, and schedules the route's release.
func (x *Crossbar) hold(r *xreq, window sim.Tick, phase int, sent uint32) {
	name, bytes := xbarSpans[phase], sent
	if x.bus {
		name, bytes = busSpans[phase], r.Bytes
	}
	x.occupy(name, x.eng.Now(), window, r.Master, bytes)
	x.masters[r.Master].busy = true
	sl := &x.slaves[r.slave]
	sl.cur, sl.phase, sl.sent = r, phase, sent
	x.eng.AfterEvent(window, sl.release)
}

// release frees the route sl's transfer holds, advances the transfer's
// burst cursor, finishes the phase, and re-arbitrates. A transfer with
// bursts left stays at its queue's head.
func (x *Crossbar) release(sl *xbarSlave) {
	r := sl.cur
	sl.cur = nil
	x.masters[r.Master].busy = false
	r.sent += sl.sent
	switch sl.phase {
	case readAddr:
		x.masters[r.Master].reqs.pop()
		r.Target.Access(r.Addr, r.Bytes, false, r.ready)
	case writeData:
		if r.sent == r.Bytes {
			x.masters[r.Master].reqs.pop()
			// Posted write: the target accepts the full payload after the
			// final burst; Done fires on acceptance.
			target, addr, n, done := r.Target, r.Addr, r.Bytes, r.Done
			x.free(r)
			target.Access(addr, n, true, done)
		}
	case readData:
		if r.sent == r.Bytes {
			x.respQueue(r.Master).pop()
			done := r.Done
			x.free(r)
			done()
		}
	case nacked:
		x.masters[r.Master].reqs.pop()
		x.backoff(r.attempts, func() {
			x.masters[r.Master].reqs.push(r)
			x.arbitrate()
		})
	case dropped:
		x.masters[r.Master].reqs.pop()
		x.free(r)
	}
	x.arbitrate()
}
