package cpu

import (
	"gem5aladdin/internal/mem/bus"
	"gem5aladdin/internal/mem/cache"
	"gem5aladdin/internal/mem/coherence"
	"gem5aladdin/internal/sim"
)

// Hierarchy is the host CPU's private two-level cache hierarchy (the
// CPU0/CPU1 L1 + shared L2 blocks of the paper's Fig 3 SoC diagram),
// composed from the same cache model the accelerator uses: the L1 misses
// into the L2 over a private on-core link, and the L2 misses onto the
// system bus.
//
// The accelerator experiments charge CPU flush work analytically (the
// paper's measured 84 ns/line); this modeled hierarchy exists to validate
// that constant — warm it with dirty data, flush it, and compare the
// per-line cost — and to serve as a real snoop responder in coherence
// studies.
type Hierarchy struct {
	L1, L2 *cache.Cache
	eng    *sim.Engine
}

// HierarchyConfig sizes the two levels and the private link.
type HierarchyConfig struct {
	L1, L2    cache.Config
	LinkBits  int       // L1<->L2 link width
	LinkClock sim.Clock // on-core clock for the link
}

// DefaultHierarchyConfig models a Cortex-A9-class core: 32 KB 4-way L1,
// 512 KB 8-way L2, 32 B lines, a 64-bit on-core link at the CPU clock.
func DefaultHierarchyConfig(cpuClock sim.Clock) HierarchyConfig {
	l1 := cache.Config{
		SizeBytes: 32 * 1024, LineBytes: 32, Assoc: 4, Ports: 2,
		MSHRs: 8, Clock: cpuClock, HitCycles: 2, SnoopLat: 10 * sim.Nanosecond,
	}
	l2 := cache.Config{
		SizeBytes: 512 * 1024, LineBytes: 32, Assoc: 8, Ports: 1,
		MSHRs: 16, Clock: cpuClock, HitCycles: 8, SnoopLat: 20 * sim.Nanosecond,
	}
	return HierarchyConfig{L1: l1, L2: l2, LinkBits: 64, LinkClock: cpuClock}
}

// cacheTarget adapts a cache into a bus.Target so cache levels chain.
type cacheTarget struct{ c *cache.Cache }

// Access implements bus.Target.
func (t cacheTarget) Access(addr uint64, n uint32, write bool, done func()) {
	t.c.Access(addr, n, write, done)
}

// NewHierarchy builds the hierarchy. The L2 joins the given coherence
// controller as peer l2Peer and misses onto sysBus; the L1 is private (its
// own single-peer controller), which models an inclusive write-back L1
// whose coherence is enforced at the L2 boundary.
func NewHierarchy(eng *sim.Engine, cfg HierarchyConfig, sysBus bus.Fabric,
	coh *coherence.Controller, l2Peer int) *Hierarchy {

	h := &Hierarchy{eng: eng}
	h.L2 = cache.New(eng, cfg.L2, sysBus, coh, l2Peer)
	priv := coherence.NewController()
	l1Peer := priv.AddPeer()
	link := bus.New(eng, bus.Config{WidthBits: cfg.LinkBits, Clock: cfg.LinkClock},
		cacheTarget{h.L2})
	h.L1 = cache.New(eng, cfg.L1, link, priv, l1Peer)
	return h
}

// Access performs one CPU load or store through the hierarchy.
func (h *Hierarchy) Access(addr uint64, size uint32, write bool, done func()) {
	h.L1.Access(addr, size, write, done)
}

// Warm writes the byte range [addr, addr+n) through the hierarchy, leaving
// it dirty in the caches — the state a host program's initialization loop
// produces. The caller drains the engine afterwards; warm-up time is not
// part of any measured interval.
func (h *Hierarchy) Warm(addr uint64, n uint32, done func()) {
	line := h.L1.Config().LineBytes
	remaining := (n + line - 1) / line
	if remaining == 0 {
		done()
		return
	}
	for off := uint32(0); off < n; off += line {
		h.L1.Access(addr+uint64(off), 4, true, func() {
			remaining--
			if remaining == 0 {
				done()
			}
		})
	}
}

// FlushAll writes every dirty line in both levels back to memory and
// invalidates them — the software coherence management a driver performs
// before a DMA transfer. done fires when the last writeback completes.
func (h *Hierarchy) FlushAll(done func()) {
	h.L1.FlushDirty(func() {
		h.L2.FlushDirty(done)
	})
}
