// Package spad models the accelerator's partitioned scratchpad memories and
// the full/empty ("ready") bit SRAM used by DMA-triggered computation
// (Sec IV-B2 of the paper).
//
// Each kernel array is cyclically partitioned into P banks; each bank
// serves a fixed number of accesses per accelerator cycle (its ports).
// Partitioning is the paper's second design axis next to datapath lanes:
// more banks mean more memory bandwidth into the lanes at the cost of more
// SRAM periphery energy.
package spad

import (
	"fmt"
	"math/bits"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/power"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/trace"
)

// Config describes the scratchpad organization applied to every array.
type Config struct {
	Partitions int // banks per array (1..16 in the paper's sweeps)
	Ports      int // accesses per bank per cycle
}

// DefaultConfig is a single-bank, single-ported scratchpad.
func DefaultConfig() Config { return Config{Partitions: 1, Ports: 1} }

// Stats counts scratchpad activity.
type Stats struct {
	Reads, Writes  uint64
	BankConflicts  uint64 // accesses delayed by port exhaustion
	ReadyBitStalls uint64 // lane-cycles a load waited on a clear full/empty bit
}

// Spad holds the per-array bank state for one accelerator instance.
type Spad struct {
	cfg    Config
	arrays []arrayState
	// bankMod is ceil(2^64 / Partitions), so that bankOf takes an element
	// index mod Partitions without a divide.
	bankMod uint64
	stats   Stats
	inj     *fault.Injector

	// ready-bit tracking (nil when DMA-triggered compute is off):
	// per array, one bit per granularity-sized chunk.
	readyGranularity uint32
	ready            [][]uint64
}

type arrayState struct {
	elemShift uint8  // log2 of the element size
	length    uint32 // elements
	// port bookkeeping: accesses issued per bank in the current cycle
	cycle     uint64
	usedPorts []int
}

// New builds scratchpad state for the arrays of a trace.
func New(cfg Config, arrays []*trace.Array) *Spad {
	if cfg.Partitions <= 0 || cfg.Ports <= 0 {
		panic("spad: invalid config")
	}
	s := &Spad{cfg: cfg, bankMod: ^uint64(0)/uint64(cfg.Partitions) + 1}
	for _, a := range arrays {
		s.arrays = append(s.arrays, arrayState{
			elemShift: uint8(bits.TrailingZeros32(a.Elem.Size())),
			length:    uint32(a.Len),
			usedPorts: make([]int, cfg.Partitions),
		})
	}
	return s
}

// Stats returns a copy of the counters.
func (s *Spad) Stats() Stats { return s.stats }

// SetFaults attaches a fault injector (nil disables injection). Each
// granted access rolls for a bit flip in the bank word; SECDED corrects
// singles and detects doubles without changing access timing.
func (s *Spad) SetFaults(inj *fault.Injector) { s.inj = inj }

// Config returns the scratchpad configuration.
func (s *Spad) Config() Config { return s.cfg }

// RegisterStats registers the scratchpad counters under prefix.
func (s *Spad) RegisterStats(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+".reads", "scratchpad read accesses",
		func() uint64 { return s.stats.Reads })
	reg.CounterFunc(prefix+".writes", "scratchpad write accesses",
		func() uint64 { return s.stats.Writes })
	reg.CounterFunc(prefix+".bank_conflicts", "accesses delayed by port exhaustion",
		func() uint64 { return s.stats.BankConflicts })
	reg.CounterFunc(prefix+".ready_bit_stalls", "lane-cycles a load waited on a clear full/empty bit",
		func() uint64 { return s.stats.ReadyBitStalls })
}

// EnableReadyBits turns on full/empty-bit tracking at the given granularity
// in bytes (the paper uses the CPU cache line size so bits stay consistent
// with flush granularity). All chunks start empty for In arrays.
func (s *Spad) EnableReadyBits(granularity uint32, arrays []*trace.Array) {
	if granularity == 0 {
		panic("spad: zero ready-bit granularity")
	}
	s.readyGranularity = granularity
	s.ready = make([][]uint64, len(arrays))
	for i, a := range arrays {
		if a.Dir.IsIn() {
			chunks := (a.Bytes() + granularity - 1) / granularity
			s.ready[i] = make([]uint64, (chunks+63)/64)
		}
	}
}

// MarkArrived sets the full/empty bits covering [off, off+n) bytes of the
// given array, waking loads that were stalled on them.
func (s *Spad) MarkArrived(arr int16, off, n uint32) {
	if s.ready == nil || s.ready[arr] == nil || n == 0 {
		return
	}
	g := s.readyGranularity
	bits := s.ready[arr]
	for c := off / g; c <= (off+n-1)/g; c++ {
		if int(c/64) < len(bits) {
			bits[c/64] |= 1 << (c % 64)
		}
	}
}

// MarkAllArrived sets every bit of every array (end of DMA).
func (s *Spad) MarkAllArrived(arrays []*trace.Array) {
	for i, a := range arrays {
		if s.ready != nil && s.ready[i] != nil {
			s.MarkArrived(int16(i), 0, a.Bytes())
		}
	}
}

// DataReady reports whether a load of size bytes at byte offset off in arr
// may proceed under full/empty-bit control. Always true when ready bits are
// disabled or the array is not DMA-fed.
func (s *Spad) DataReady(arr int16, off uint32, size uint8) bool {
	if s.ready == nil || s.ready[arr] == nil {
		return true
	}
	g := s.readyGranularity
	bits := s.ready[arr]
	for c := off / g; c <= (off+uint32(size)-1)/g; c++ {
		if bits[c/64]&(1<<(c%64)) == 0 {
			s.stats.ReadyBitStalls++
			return false
		}
	}
	return true
}

// AddReadyBitStalls counts n more lane-cycles of loads waiting on a clear
// full/empty bit: a scheduler that parks a refused load, instead of asking
// DataReady again every cycle, reports the cycles it waited here.
func (s *Spad) AddReadyBitStalls(n uint64) { s.stats.ReadyBitStalls += n }

// TryAccess attempts a scratchpad access in the given accelerator cycle and
// reports whether a bank port was available. Ports free at every new cycle.
func (s *Spad) TryAccess(arr int16, off uint32, write bool, cycle uint64) bool {
	st := &s.arrays[arr]
	if st.cycle != cycle {
		st.cycle = cycle
		for i := range st.usedPorts {
			st.usedPorts[i] = 0
		}
	}
	bank := s.bankOf(st, off)
	if st.usedPorts[bank] >= s.cfg.Ports {
		s.stats.BankConflicts++
		return false
	}
	st.usedPorts[bank]++
	if write {
		s.stats.Writes++
	} else {
		s.stats.Reads++
	}
	// The spad has no engine reference; the accelerator cycle stands in for
	// the tick in fault records (still strictly deterministic).
	s.inj.ECC(fault.SiteSpad, sim.Tick(cycle), uint64(arr)<<32|uint64(off))
	return true
}

// bankOf returns the bank holding byte offset off of an array: under
// cyclic partitioning, element e lives in bank e mod P. Element sizes are
// powers of two, so e is a shift of off, and the remainder is Lemire, Kaser
// and Kurz's fastmod, exact for 32-bit e and P.
func (s *Spad) bankOf(st *arrayState, off uint32) uint32 {
	bank, _ := bits.Mul64(s.bankMod*uint64(off>>st.elemShift), uint64(s.cfg.Partitions))
	return uint32(bank)
}

// BankBytes returns the capacity of one bank of array a, which sizes the
// SRAM macro for energy modeling. Scratchpads must hold the whole array
// (no replacement), one of the paper's key contrasts with caches.
func (s *Spad) BankBytes(a *trace.Array) uint64 {
	per := (uint64(a.Bytes()) + uint64(s.cfg.Partitions) - 1) / uint64(s.cfg.Partitions)
	if per == 0 {
		per = 1
	}
	return per
}

// Energy computes scratchpad dynamic + leakage energy for a run of the
// given seconds using model m.
func (s *Spad) Energy(m *power.Model, arrays []*trace.Array, seconds float64) power.Breakdown {
	var bd power.Breakdown
	var leakW float64
	var maxBank uint64 = 1
	for _, a := range arrays {
		bank := s.BankBytes(a)
		leakW += m.SRAMLeakW(bank, s.cfg.Ports) * float64(s.cfg.Partitions)
		if bank > maxBank {
			maxBank = bank
		}
	}
	// Dynamic energy charges each access at the dominant (largest) bank
	// macro plus the bank-select crossbar; per-array banks are close in
	// size for these kernels.
	perAccess := m.BankedSRAMAccessJ(maxBank, s.cfg.Ports, s.cfg.Partitions)
	bd.MemDynamic = perAccess * float64(s.stats.Reads+s.stats.Writes)
	bd.MemLeak = leakW * seconds
	return bd
}

// String summarizes the configuration.
func (s *Spad) String() string {
	return fmt.Sprintf("spad{banks:%d ports:%d}", s.cfg.Partitions, s.cfg.Ports)
}
