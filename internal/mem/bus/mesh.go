package bus

import (
	"fmt"
	"strings"

	"gem5aladdin/internal/sim"
)

// MeshConfig describes a simple 2D mesh NoC: Dim×Dim routers connected by
// width-limited links, dimension-ordered (XY) routing, and a per-hop
// router+link traversal latency. The memory-side target sits at node (0,0);
// masters are placed round-robin over the remaining nodes.
type MeshConfig struct {
	WidthBits int       // link width (flit payload per cycle)
	Clock     sim.Clock // NoC clock domain
	Dim       int       // routers per side; defaults to 2
	HopCycles int       // router pipeline + link traversal per hop; defaults to 1
}

// mpkt is a packet in flight: a read request (1 header flit), a write
// (header + data flits), or a read response (header + data flits).
type mpkt struct {
	txn
	flits uint64 // packet length on the wire, header included
	node  int    // current router
	dest  int
	resp  bool // a read response heading back to its master
}

// Mesh is a store-and-forward 2D mesh NoC with XY routing. Each directed
// link serializes the packets crossing it (link-width back-pressure): a
// packet occupies a link for HopCycles plus one cycle per flit, and a
// packet arriving at a busy link waits for the link's free time. Traffic
// between disjoint links flows concurrently, so spatially separated
// masters contend only where their XY paths overlap. An injected NACK
// refuses a packet at admission, before it occupies any link.
type Mesh struct {
	port
	dim, hopCycles int

	nodeOf   []int      // master id → injection node
	linkFree []sim.Tick // [node*4+dir] earliest time the link is idle
	inflight int
}

// Link directions out of a router.
const (
	meshEast = iota
	meshWest
	meshNorth
	meshSouth
)

// NewMesh creates a mesh attached to eng, delivering transactions to the
// memory-side target at node (0,0).
func NewMesh(eng *sim.Engine, cfg MeshConfig, target Target) *Mesh {
	p := newPort("mesh", eng, cfg.WidthBits, cfg.Clock, target)
	if cfg.Dim == 0 {
		cfg.Dim = 2
	}
	if cfg.Dim < 2 {
		panic(fmt.Sprintf("mesh: invalid dimension %d", cfg.Dim))
	}
	if cfg.HopCycles == 0 {
		cfg.HopCycles = 1
	}
	return &Mesh{
		port: p, dim: cfg.Dim, hopCycles: cfg.HopCycles,
		linkFree: make([]sim.Tick, cfg.Dim*cfg.Dim*4),
	}
}

// RegisterMaster places the next master on the mesh and returns its id.
// Masters spread round-robin over nodes 1..Dim²-1 (node 0 is the memory
// port), so registration order fixes the floorplan deterministically.
func (m *Mesh) RegisterMaster() int {
	id := m.register()
	m.nodeOf = append(m.nodeOf, 1+id%(m.dim*m.dim-1))
	return id
}

// InFlight counts packets still traversing the mesh or awaiting a target.
func (m *Mesh) InFlight() int { return m.inflight + m.backoffs }

// DumpInFlight renders link occupancy for a watchdog diagnostic.
func (m *Mesh) DumpInFlight() string {
	var s strings.Builder
	fmt.Fprintf(&s, "inflight=%d backoffs=%d now=%v", m.inflight, m.backoffs, m.eng.Now())
	dirs := [4]string{"E", "W", "N", "S"}
	for l, free := range m.linkFree {
		if free <= m.eng.Now() {
			continue
		}
		node, dir := l/4, l%4
		fmt.Fprintf(&s, "\nlink n%d.%s busy until %v",
			node, dirs[dir], free)
	}
	return s.String()
}

// Submit injects t at its master's node. Write packets carry their data;
// read requests are a lone header flit.
func (m *Mesh) Submit(t Txn) {
	tx, ok := m.admit(t)
	if !ok {
		return
	}
	p := &mpkt{txn: tx, node: m.nodeOf[t.Master], flits: 1}
	if t.Write {
		p.flits += m.beats(t.Bytes)
	}
	m.inject(p)
}

// inject admits p to the network: the network interface may NACK it, in
// which case the master backs off and injects again.
func (m *Mesh) inject(p *mpkt) {
	switch m.nack(&p.txn) {
	case retry:
		m.backoff(p.attempts, func() { m.inject(p) })
		return
	case drop:
		return
	}
	m.inflight++
	m.count(&p.txn)
	m.forward(p)
}

// nextHop computes the XY route: correct X (east/west) first, then Y.
func (m *Mesh) nextHop(node, dest int) (next, dir int) {
	d := m.dim
	nx, ny := node%d, node/d
	dx, dy := dest%d, dest/d
	switch {
	case nx < dx:
		return node + 1, meshEast
	case nx > dx:
		return node - 1, meshWest
	case ny < dy:
		return node + d, meshSouth
	default:
		return node - d, meshNorth
	}
}

// forward moves p one hop toward its destination, serializing on the
// outgoing link, and delivers it on arrival.
func (m *Mesh) forward(p *mpkt) {
	if p.node == p.dest {
		m.deliver(p)
		return
	}
	next, dir := m.nextHop(p.node, p.dest)
	link := p.node*4 + dir
	now := m.eng.Now()
	start := max(now, m.linkFree[link])
	occ := m.clock.Cycles(uint64(m.hopCycles) + p.flits)
	m.linkFree[link] = start + occ
	// Queuing at the first hop is the packet's arbitration delay.
	if p.node == m.nodeOf[p.Master] && !p.resp {
		m.stats.WaitTicks += start - now
	}
	m.occupy("mesh-hop", start, occ, link, p.Bytes)
	arrive := start + occ
	if next == p.dest && p.resp && p.Progress != nil {
		// The response's data flits drain across the last link: spread the
		// stream notifications over that window.
		m.spread(&p.txn, 0, p.Bytes, arrive-now)
	}
	p.node = next
	m.eng.After(arrive-now, func() { m.forward(p) })
}

// deliver hands an arrived packet to its endpoint.
func (m *Mesh) deliver(p *mpkt) {
	switch {
	case p.resp:
		// Response data arrived back at the master.
		m.inflight--
		p.Done()
	case p.Write:
		// Posted write: the target accepts the payload; Done fires on
		// acceptance.
		m.inflight--
		p.Target.Access(p.Addr, p.Bytes, true, p.Done)
	default:
		// Read request at the memory port: the target services it off the
		// network, then the response packet carries the data back.
		p.Target.Access(p.Addr, p.Bytes, false, func() {
			p.resp = true
			p.dest = m.nodeOf[p.Master]
			p.node = 0
			p.flits = 1 + m.beats(p.Bytes)
			m.forward(p)
		})
	}
}
