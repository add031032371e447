package spad

import (
	"testing"

	"gem5aladdin/internal/power"
	"gem5aladdin/internal/trace"
)

func testArrays() []*trace.Array {
	b := trace.NewBuilder("t")
	b.Alloc("in", trace.F64, 64, trace.In)   // 512 B
	b.Alloc("out", trace.F64, 64, trace.Out) // 512 B
	return b.Finish().Arrays
}

func TestPortLimitPerBank(t *testing.T) {
	arrs := testArrays()
	s := New(Config{Partitions: 2, Ports: 1}, arrs)
	// Elements 0 and 2 share bank 0 under cyclic partitioning.
	if !s.TryAccess(0, 0*8, false, 1) {
		t.Fatal("first access refused")
	}
	if s.TryAccess(0, 2*8, false, 1) {
		t.Fatal("same-bank same-cycle access should conflict")
	}
	// Element 1 lives in bank 1: available.
	if !s.TryAccess(0, 1*8, false, 1) {
		t.Fatal("other-bank access refused")
	}
	// Next cycle the port frees.
	if !s.TryAccess(0, 2*8, false, 2) {
		t.Fatal("port did not free on new cycle")
	}
	if s.Stats().BankConflicts != 1 {
		t.Fatalf("conflicts = %d", s.Stats().BankConflicts)
	}
}

// TestBankIndexMatchesDivision checks the shift-and-fastmod bank index
// against (off / elemSize) % P for 1-, 4- and 8-byte elements over 1-33
// partitions, at every offset of the first 16 KB, the top 16 KB of the
// 32-bit range and a spread between.
func TestBankIndexMatchesDivision(t *testing.T) {
	var offs []uint32
	for off := uint32(0); off < 1<<14; off++ {
		offs = append(offs, off, ^uint32(0)-off)
	}
	for off := uint64(1 << 14); off < 1<<32; off = off*5/4 + 7 {
		offs = append(offs, uint32(off))
	}
	for _, elem := range []trace.ElemKind{trace.U8, trace.I32, trace.F64} {
		b := trace.NewBuilder("banks")
		b.Alloc("a", elem, 1, trace.In)
		arrs := b.Finish().Arrays
		size := elem.Size()
		for p := 1; p <= 33; p++ {
			s := New(Config{Partitions: p, Ports: 1}, arrs)
			for _, off := range offs {
				if got, want := s.bankOf(&s.arrays[0], off), (off/size)%uint32(p); got != want {
					t.Fatalf("%d-byte elements, %d banks: offset %d in bank %d, want %d",
						size, p, off, got, want)
				}
			}
		}
	}
}

func TestMorePartitionsMoreBandwidth(t *testing.T) {
	arrs := testArrays()
	s := New(Config{Partitions: 4, Ports: 1}, arrs)
	granted := 0
	for e := uint32(0); e < 4; e++ {
		if s.TryAccess(0, e*8, false, 1) {
			granted++
		}
	}
	if granted != 4 {
		t.Fatalf("4 banks granted %d accesses in one cycle", granted)
	}
}

func TestMultiPortBank(t *testing.T) {
	arrs := testArrays()
	s := New(Config{Partitions: 1, Ports: 2}, arrs)
	if !s.TryAccess(0, 0, false, 1) || !s.TryAccess(0, 8, true, 1) {
		t.Fatal("2-port bank refused two accesses")
	}
	if s.TryAccess(0, 16, false, 1) {
		t.Fatal("third access on 2-port bank should conflict")
	}
	st := s.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("reads/writes = %d/%d", st.Reads, st.Writes)
	}
}

func TestArraysHaveIndependentPorts(t *testing.T) {
	arrs := testArrays()
	s := New(Config{Partitions: 1, Ports: 1}, arrs)
	if !s.TryAccess(0, 0, false, 1) || !s.TryAccess(1, 0, true, 1) {
		t.Fatal("accesses to different arrays should not conflict")
	}
}

func TestReadyBits(t *testing.T) {
	arrs := testArrays()
	s := New(DefaultConfig(), arrs)
	s.EnableReadyBits(32, arrs)
	// Nothing arrived: load of array 0 stalls; array 1 (Out) is exempt.
	if s.DataReady(0, 0, 8) {
		t.Fatal("load should stall before DMA arrival")
	}
	if !s.DataReady(1, 0, 8) {
		t.Fatal("output array should never stall")
	}
	s.MarkArrived(0, 0, 32)
	if !s.DataReady(0, 0, 8) || !s.DataReady(0, 24, 8) {
		t.Fatal("arrived chunk should be ready")
	}
	if s.DataReady(0, 32, 8) {
		t.Fatal("not-yet-arrived chunk should stall")
	}
	if s.Stats().ReadyBitStalls != 2 {
		t.Fatalf("stalls = %d", s.Stats().ReadyBitStalls)
	}
}

func TestReadyBitsStraddle(t *testing.T) {
	arrs := testArrays()
	s := New(DefaultConfig(), arrs)
	s.EnableReadyBits(32, arrs)
	s.MarkArrived(0, 0, 32)
	// An 8-byte access at offset 28 straddles chunks 0 and 1.
	if s.DataReady(0, 28, 8) {
		t.Fatal("straddling access should wait for both chunks")
	}
	s.MarkArrived(0, 32, 32)
	if !s.DataReady(0, 28, 8) {
		t.Fatal("straddling access ready once both chunks arrive")
	}
}

func TestMarkAllArrived(t *testing.T) {
	arrs := testArrays()
	s := New(DefaultConfig(), arrs)
	s.EnableReadyBits(32, arrs)
	s.MarkAllArrived(arrs)
	if !s.DataReady(0, 504, 8) {
		t.Fatal("MarkAllArrived left a chunk empty")
	}
}

func TestReadyBitsDisabled(t *testing.T) {
	arrs := testArrays()
	s := New(DefaultConfig(), arrs)
	if !s.DataReady(0, 0, 8) {
		t.Fatal("ready bits disabled should never stall")
	}
}

func TestBankBytes(t *testing.T) {
	arrs := testArrays() // 512 B arrays
	s := New(Config{Partitions: 4, Ports: 1}, arrs)
	if got := s.BankBytes(arrs[0]); got != 128 {
		t.Fatalf("bank bytes = %d, want 128", got)
	}
	s1 := New(Config{Partitions: 1, Ports: 1}, arrs)
	if got := s1.BankBytes(arrs[0]); got != 512 {
		t.Fatalf("unpartitioned bank bytes = %d, want 512", got)
	}
}

func TestEnergyAccounting(t *testing.T) {
	arrs := testArrays()
	s := New(DefaultConfig(), arrs)
	m := power.Default()
	e0 := s.Energy(m, arrs, 1e-6)
	if e0.MemDynamic != 0 {
		t.Fatal("no accesses should mean no dynamic energy")
	}
	if e0.MemLeak <= 0 {
		t.Fatal("leakage should accrue with time")
	}
	s.TryAccess(0, 0, false, 1)
	e1 := s.Energy(m, arrs, 1e-6)
	if e1.MemDynamic <= 0 {
		t.Fatal("access should add dynamic energy")
	}
	// More partitions -> more leakage (same total capacity, more macros).
	s16 := New(Config{Partitions: 16, Ports: 1}, arrs)
	e16 := s16.Energy(m, arrs, 1e-6)
	if e16.MemLeak <= e0.MemLeak {
		t.Fatalf("16-bank leakage %g should exceed 1-bank %g", e16.MemLeak, e0.MemLeak)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(Config{Partitions: 0, Ports: 1}, testArrays())
}

func TestZeroGranularityPanics(t *testing.T) {
	s := New(DefaultConfig(), testArrays())
	defer func() {
		if recover() == nil {
			t.Fatal("zero granularity did not panic")
		}
	}()
	s.EnableReadyBits(0, testArrays())
}
