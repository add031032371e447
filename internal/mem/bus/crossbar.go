package bus

import (
	"fmt"
	"strings"

	"gem5aladdin/internal/sim"
)

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

// xreq is a crossbar transaction. Unlike the bus's request it carries a
// burst cursor (sent) because a transfer releases its route between bursts.
type xreq struct {
	txn
	sent  uint32 // bytes already moved across the fabric
	slave int
	// dataPhase marks a read response draining data beats back to the
	// master.
	dataPhase bool
}

type xbarMaster struct {
	reqs  fifo[*xreq] // fresh requests, in order; the head stays put while granted
	resps fifo[*xreq] // read responses draining back; the head stays put while granted
	busy  bool        // master channel currently granted to a route
}

type xbarSlave struct {
	busy   bool
	rrNext int // round-robin start master for this slave's arbitration
}

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
	return &Crossbar{
		port:       p,
		burstBytes: uint32(cfg.BurstBeats) * p.width,
		slaves:     make([]xbarSlave, cfg.Slaves),
	}
}

// slaveOf interleaves the address space across slave ports at 4KiB
// granularity (matching DRAM bank interleave scale, so streams spread).
func (x *Crossbar) slaveOf(addr uint64) int {
	return int((addr >> 12) % uint64(len(x.slaves)))
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
	n := x.backoffs
	for i := range x.masters {
		n += x.masters[i].reqs.len() + x.masters[i].resps.len()
	}
	return n
}

// DumpInFlight renders the queue state for a watchdog diagnostic.
func (x *Crossbar) DumpInFlight() string {
	granted := 0
	for _, sl := range x.slaves {
		if sl.busy {
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

// Submit enqueues t on its master's request channel.
func (x *Crossbar) Submit(t Txn) {
	tx, ok := x.admit(t)
	if !ok {
		return
	}
	x.masters[t.Master].reqs.push(&xreq{txn: tx, slave: x.slaveOf(t.Addr)})
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
		sl := &x.slaves[s]
		if sl.busy {
			continue
		}
		if r := x.pickFor(s); r != nil {
			x.grant(r)
		}
	}
}

// pickFor selects the next transfer for slave s, or nil. Round-robin over
// masters starting at the slave's rrNext; responses win over requests.
func (x *Crossbar) pickFor(s int) *xreq {
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
	x.masters[r.Master].busy, x.slaves[r.slave].busy = true, true

	if !r.dataPhase && r.sent == 0 {
		switch x.nack(&r.txn) {
		case drop:
			x.releaseRoute(r, x.clock.Cycles(1), "xbar-drop", 0, func() {
				x.masters[r.Master].reqs.pop()
			})
			return
		case retry:
			x.releaseRoute(r, x.clock.Cycles(1), "xbar-nack", 0, func() {
				x.masters[r.Master].reqs.pop()
				x.backoff(r.attempts, func() {
					x.masters[r.Master].reqs.push(r)
					x.arbitrate()
				})
			})
			return
		}
	}

	chunk := min(r.Bytes-r.sent, x.burstBytes)
	beats := x.beats(chunk)
	last := r.sent+chunk == r.Bytes

	switch {
	case r.dataPhase:
		// Read response burst: data beats only on the response channel.
		window := x.clock.Cycles(beats)
		if r.Progress != nil {
			x.spread(&r.txn, r.sent, chunk, window)
		}
		x.releaseRoute(r, window, "xbar-read-data", chunk, func() {
			if last {
				x.masters[r.Master].resps.pop()
				r.Done()
			}
			// Otherwise the head stays; the next burst re-arbitrates.
		})

	case r.Write:
		// Write burst: address cycle + data beats travel together.
		if r.sent == 0 {
			x.count(&r.txn)
		}
		x.releaseRoute(r, x.clock.Cycles(1+beats), "xbar-write", chunk, func() {
			if last {
				x.masters[r.Master].reqs.pop()
				// Posted write: the target accepts the full payload after
				// the final burst; Done fires on acceptance.
				r.Target.Access(r.Addr, r.Bytes, true, r.Done)
			}
		})

	default:
		// Read request: a one-cycle address phase opens the transaction;
		// the route frees while the target services it, and the response
		// drains in bursts on the response channel.
		x.count(&r.txn)
		x.releaseRoute(r, x.clock.Cycles(1), "xbar-read-addr", 0, func() {
			x.masters[r.Master].reqs.pop()
			r.Target.Access(r.Addr, r.Bytes, false, func() {
				r.dataPhase = true
				x.masters[r.Master].resps.push(r)
				x.arbitrate()
			})
		})
	}
}

// releaseRoute accounts one route occupancy window, then frees the master
// channel and slave port, advances the burst cursor by sent bytes, runs the
// continuation, and re-arbitrates. A transfer with bursts left stays at its
// queue's head; the continuation pops a finished one.
func (x *Crossbar) releaseRoute(r *xreq, window sim.Tick, phase string, sent uint32, then func()) {
	x.occupy(phase, x.eng.Now(), window, r.Master, sent)
	x.eng.After(window, func() {
		x.masters[r.Master].busy = false
		x.slaves[r.slave].busy = false
		r.sent += sent
		then()
		x.arbitrate()
	})
}
