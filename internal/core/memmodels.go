// Memory-model implementations plugged into the datapath scheduler: ideal
// (isolated Aladdin), partitioned scratchpads with full/empty bits (DMA
// designs), and the hardware-managed cache with a private TLB (cache
// designs). Local arrays stay in scratchpads even for cache designs
// (Sec IV-D: "only data that must eventually be shared with the rest of
// the system is sent through the cache").
package core

import (
	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/mem/cache"
	"gem5aladdin/internal/mem/spad"
	"gem5aladdin/internal/mem/tlb"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/trace"
)

// IdealMem services every access in one cycle with no port limits: the
// memory system assumed when an accelerator is designed in isolation.
type IdealMem struct{}

// Issue implements MemModel.
func (IdealMem) Issue(id int32, n *trace.Node, cycle uint64, complete func()) IssueStatus {
	return IssueLocal
}

// Parked implements MemModel; IdealMem never answers IssueWait.
func (IdealMem) Parked(lanes int) {}

// Drained implements MemModel.
func (IdealMem) Drained() bool { return true }

// SpadMem is the scratchpad memory model for DMA-based designs: accesses
// contend for bank ports and, when DMA-triggered computation is enabled,
// loads gate on full/empty bits. A load whose bit is clear is answered
// IssueWait: its owner calls Datapath.Wake whenever it sets a bit
// (soc wires the DMA engine's arrivals and the end of its load phase).
type SpadMem struct {
	Spad *spad.Spad
}

// NewSpadMem wraps a configured scratchpad.
func NewSpadMem(s *spad.Spad) *SpadMem { return &SpadMem{Spad: s} }

// Issue implements MemModel.
func (m *SpadMem) Issue(id int32, n *trace.Node, cycle uint64, complete func()) IssueStatus {
	if n.Kind == trace.OpLoad && !m.Spad.DataReady(n.Arr, n.Addr, n.Size) {
		return IssueWait
	}
	if !m.Spad.TryAccess(n.Arr, n.Addr, n.Kind == trace.OpStore, cycle) {
		return IssueRetry
	}
	return IssueLocal
}

// Parked implements MemModel: each parked lane counts as a load that found
// its full/empty bit clear again.
func (m *SpadMem) Parked(lanes int) { m.Spad.AddReadyBitStalls(uint64(lanes)) }

// Drained implements MemModel.
func (m *SpadMem) Drained() bool { return true }

// CacheMem routes shared arrays through the accelerator cache (behind the
// TLB) and private Local arrays through a scratchpad. A cache access blocks
// only the issuing lane; MSHRs in the cache provide hit-under-miss.
type CacheMem struct {
	Cache *cache.Cache
	TLB   *tlb.TLB
	Spad  *spad.Spad
	Graph *ddg.Graph
	eng   *sim.Engine

	// cached per array: true if the array goes through the cache
	viaCache []bool
}

// NewCacheMem wires the cache-based memory interface.
func NewCacheMem(eng *sim.Engine, c *cache.Cache, t *tlb.TLB, s *spad.Spad, g *ddg.Graph) *CacheMem {
	m := &CacheMem{Cache: c, TLB: t, Spad: s, Graph: g, eng: eng}
	m.viaCache = make([]bool, len(g.Trace.Arrays))
	for i, a := range g.Trace.Arrays {
		m.viaCache[i] = a.Dir != trace.Local
	}
	return m
}

// Issue implements MemModel. Hits behave like scratchpad accesses — the
// lane keeps issuing — while TLB walks and cache misses block only the
// issuing lane (Sec IV-D's miss-handling scheme).
func (m *CacheMem) Issue(id int32, n *trace.Node, cycle uint64, complete func()) IssueStatus {
	if !m.viaCache[n.Arr] {
		if !m.Spad.TryAccess(n.Arr, n.Addr, n.Kind == trace.OpStore, cycle) {
			return IssueRetry
		}
		return IssueLocal
	}
	vaddr := m.Graph.NodeAddr(id)
	paddr, penalty := m.TLB.Translate(vaddr)
	write := n.Kind == trace.OpStore
	size := uint32(n.Size)
	if penalty == 0 {
		switch m.Cache.TryFastHit(paddr, size, write) {
		case cache.FastHit:
			return IssueLocal
		case cache.FastPortBusy:
			return IssueRetry
		}
		m.Cache.Access(paddr, size, write, complete)
		return IssueAsync
	}
	m.eng.After(penalty, func() {
		m.Cache.Access(paddr, size, write, complete)
	})
	return IssueAsync
}

// Parked implements MemModel; CacheMem never answers IssueWait.
func (m *CacheMem) Parked(lanes int) {}

// Drained implements MemModel.
func (m *CacheMem) Drained() bool { return m.Cache.InFlight() == 0 }

// Translate exposes the static virtual-to-physical mapping so callers (the
// SoC wiring) can place CPU-side dirty lines at the physical addresses the
// accelerator will access. It does not perturb TLB state.
func (m *CacheMem) Translate(vaddr uint64) uint64 { return m.TLB.PhysOf(vaddr) }
