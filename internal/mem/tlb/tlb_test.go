package tlb

import (
	"testing"
	"testing/quick"

	"gem5aladdin/internal/sim"
)

func TestHitAfterMiss(t *testing.T) {
	tl := New(DefaultConfig())
	_, p1 := tl.Translate(0x1000)
	if p1 != 200*sim.Nanosecond {
		t.Fatalf("cold translation penalty = %v, want 200ns", p1)
	}
	_, p2 := tl.Translate(0x1fff) // same page
	if p2 != 0 {
		t.Fatalf("same-page translation penalty = %v, want 0", p2)
	}
	st := tl.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", st.Hits, st.Misses)
	}
}

func TestTranslationIsStable(t *testing.T) {
	tl := New(DefaultConfig())
	a1, _ := tl.Translate(0x2345)
	a2, _ := tl.Translate(0x2345)
	if a1 != a2 {
		t.Fatalf("translation unstable: %#x vs %#x", a1, a2)
	}
	if a1 == 0x2345 {
		t.Fatal("paddr should not equal vaddr (offset mapping)")
	}
	// Page-offset bits preserved.
	if a1%4096 != 0x345 {
		t.Fatalf("page offset not preserved: %#x", a1)
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 2
	tl := New(cfg)
	tl.Translate(0x0000) // page 0: miss
	tl.Translate(0x1000) // page 1: miss
	tl.Translate(0x0000) // page 0: hit (page 1 now LRU)
	tl.Translate(0x2000) // page 2: miss, evicts page 1
	if _, p := tl.Translate(0x0000); p != 0 {
		t.Fatal("page 0 should have survived")
	}
	if _, p := tl.Translate(0x1000); p == 0 {
		t.Fatal("page 1 should have been evicted")
	}
}

func TestCapacityWorkingSet(t *testing.T) {
	tl := New(DefaultConfig()) // 8 entries
	// 8-page working set: after warmup, all hits.
	for round := 0; round < 3; round++ {
		for pg := uint64(0); pg < 8; pg++ {
			tl.Translate(pg * 4096)
		}
	}
	st := tl.Stats()
	if st.Misses != 8 {
		t.Fatalf("8-page working set misses = %d, want 8", st.Misses)
	}
	// 9-page round-robin working set thrashes an 8-entry LRU TLB.
	tl2 := New(DefaultConfig())
	for round := 0; round < 3; round++ {
		for pg := uint64(0); pg < 9; pg++ {
			tl2.Translate(pg * 4096)
		}
	}
	if tl2.Stats().Hits != 0 {
		t.Fatalf("9-page LRU thrash produced %d hits", tl2.Stats().Hits)
	}
}

func TestFlush(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Translate(0x5000)
	tl.Flush()
	if _, p := tl.Translate(0x5000); p == 0 {
		t.Fatal("flushed entry still hit")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(Config{Entries: 0, PageBytes: 4096})
}

// TestPageNumberShiftMatchesDivision checks that the shift Translate takes
// the page number with agrees with dividing by the page size: a second
// address hits the entry the first one installed exactly when both have
// the same vaddr / PageBytes.
func TestPageNumberShiftMatchesDivision(t *testing.T) {
	for _, page := range []uint64{1, 2, 64, 4096, 1 << 16, 1 << 21} {
		addrs := []uint64{0, 1, page - 1, page, page + 1, 3*page - 1, 0x12345678, 1<<40 + 3, ^uint64(0) >> 1}
		for _, a := range addrs {
			for _, b := range addrs {
				tl := New(Config{Entries: 1, PageBytes: page, MissLatency: 1})
				tl.Translate(a)
				_, p := tl.Translate(b)
				if hit, same := p == 0, a/page == b/page; hit != same {
					t.Fatalf("page %d: %#x then %#x hit=%v, but the page numbers equal=%v", page, a, b, hit, same)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a page size that is not a power of two did not panic")
		}
	}()
	New(Config{Entries: 8, PageBytes: 3000})
}

// Property: translation preserves page offsets and is injective per page.
func TestTranslationProperty(t *testing.T) {
	tl := New(DefaultConfig())
	f := func(v uint32) bool {
		va := uint64(v)
		pa, _ := tl.Translate(va)
		return pa%4096 == va%4096 && pa > va
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
