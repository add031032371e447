// Package tlb implements the accelerator-side TLB described in Sec III-D of
// the paper. gem5's CPU TLBs are ISA-specific, so gem5-Aladdin carries its
// own model: it translates trace addresses into simulated virtual addresses
// and then into simulated physical addresses, with misses charged a
// pre-characterized page-table-walk penalty (200 ns, Fig 3 table).
package tlb

import (
	"math/bits"

	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
)

// Config describes a TLB instance.
type Config struct {
	Entries     int      // fully-associative entry count (8 in the paper)
	PageBytes   uint64   // page size (4 KB); a power of two
	MissLatency sim.Tick // page-walk penalty (200 ns)
}

// DefaultConfig returns the paper's accelerator TLB parameters.
func DefaultConfig() Config {
	return Config{Entries: 8, PageBytes: 4096, MissLatency: 200 * sim.Nanosecond}
}

// Stats counts TLB activity.
type Stats struct {
	Hits, Misses uint64
}

// TLB is a fully-associative, LRU-replaced translation buffer. The
// trace-virtual to simulated-physical mapping itself is a fixed linear
// offset per page (the paper's mapping is likewise deterministic once the
// host program allocates its buffers); what the TLB models is the *timing*
// of translation.
type TLB struct {
	cfg       Config
	entries   []tlbEntry
	pageShift int    // log2(PageBytes): the page number is vaddr >> pageShift
	clock     uint64 // LRU timestamp source
	stats     Stats
	// physOffset relocates virtual pages into the physical space; a
	// nonzero value keeps accidental vaddr==paddr assumptions out of
	// downstream components.
	physOffset uint64
}

type tlbEntry struct {
	vpn   uint64
	used  uint64
	valid bool
}

// New builds a TLB.
func New(cfg Config) *TLB {
	return NewWithOffset(cfg, 1<<30)
}

// NewWithOffset builds a TLB whose pages map at the given physical offset.
// Multi-accelerator systems give each accelerator a disjoint physical
// window so their working sets do not alias in DRAM or the coherence
// fabric.
func NewWithOffset(cfg Config, physOffset uint64) *TLB {
	if cfg.Entries <= 0 || cfg.PageBytes == 0 {
		panic("tlb: invalid config")
	}
	if cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		panic("tlb: page size not a power of two")
	}
	if physOffset%cfg.PageBytes != 0 {
		panic("tlb: physical offset not page aligned")
	}
	return &TLB{cfg: cfg, entries: make([]tlbEntry, cfg.Entries),
		pageShift: bits.TrailingZeros64(cfg.PageBytes), physOffset: physOffset}
}

// Stats returns a copy of the hit/miss counters.
func (t *TLB) Stats() Stats { return t.stats }

// Config returns the TLB configuration.
func (t *TLB) Config() Config { return t.cfg }

// RegisterStats registers the TLB counters under prefix.
func (t *TLB) RegisterStats(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+".hits", "translations served from the TLB",
		func() uint64 { return t.stats.Hits })
	reg.CounterFunc(prefix+".misses", "translations paying the page-walk penalty",
		func() uint64 { return t.stats.Misses })
	reg.Formula(prefix+".miss_rate", "misses / all translations",
		func() float64 {
			total := t.stats.Hits + t.stats.Misses
			if total == 0 {
				return 0
			}
			return float64(t.stats.Misses) / float64(total)
		})
}

// Translate maps a virtual address to a physical address and reports the
// translation latency: zero on a hit, the miss penalty on a miss (the walk
// is modeled analytically, as in the paper).
func (t *TLB) Translate(vaddr uint64) (paddr uint64, penalty sim.Tick) {
	vpn := vaddr >> t.pageShift
	t.clock++
	paddr = vaddr + t.physOffset

	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			e.used = t.clock
			t.stats.Hits++
			return paddr, 0
		}
	}
	t.stats.Misses++
	// Install with LRU replacement.
	victim := 0
	for i := range t.entries {
		if !t.entries[i].valid {
			victim = i
			break
		}
		if t.entries[i].used < t.entries[victim].used {
			victim = i
		}
	}
	t.entries[victim] = tlbEntry{vpn: vpn, used: t.clock, valid: true}
	return paddr, t.cfg.MissLatency
}

// PhysOf returns the physical address a virtual address maps to without
// touching TLB state (no hit/miss accounting). The SoC wiring uses it to
// place CPU-side data at the addresses the accelerator will access.
func (t *TLB) PhysOf(vaddr uint64) uint64 { return vaddr + t.physOffset }

// Flush invalidates all entries.
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}
