package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gem5aladdin/internal/mem/bus"
	"gem5aladdin/internal/mem/coherence"
	"gem5aladdin/internal/mem/dram"
	"gem5aladdin/internal/sim"
)

// rig bundles a full memory system: cache -> bus -> DRAM, with a CPU-side
// coherence peer.
type rig struct {
	eng   *sim.Engine
	cache *Cache
	bus   *bus.Crossbar
	coh   *coherence.Controller
	cpu   int
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	eng := sim.NewEngine()
	d := dram.New(eng, dram.DefaultConfig())
	b := bus.New(eng, bus.Config{WidthBits: 32, Clock: sim.NewClockHz(100e6)}, d)
	coh := coherence.NewController()
	cpu := coh.AddPeer()
	self := coh.AddPeer()
	cfg := DefaultConfig(sim.NewClockHz(100e6))
	cfg.Prefetch = false
	if mutate != nil {
		mutate(&cfg)
	}
	return &rig{eng: eng, cache: New(eng, cfg, b, coh, self), bus: b, coh: coh, cpu: cpu}
}

// access runs one access to completion and returns its latency.
func (r *rig) access(t *testing.T, addr uint64, size uint32, write bool) sim.Tick {
	t.Helper()
	start := r.eng.Now()
	var end sim.Tick
	fired := false
	r.cache.Access(addr, size, write, func() { end = r.eng.Now(); fired = true })
	r.eng.Run()
	if !fired {
		t.Fatalf("access %#x never completed", addr)
	}
	return end - start
}

func TestMissThenHit(t *testing.T) {
	r := newRig(t, nil)
	missLat := r.access(t, 0x1000, 8, false)
	hitLat := r.access(t, 0x1008, 8, false) // same 32B line
	if hitLat >= missLat {
		t.Fatalf("hit latency %v not below miss latency %v", hitLat, missLat)
	}
	// Port alignment to the next clock edge plus one hit cycle.
	if hitLat > 20*sim.Nanosecond {
		t.Fatalf("hit latency = %v", hitLat)
	}
	st := r.cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", st.Hits, st.Misses)
	}
}

func TestLineGranularityFills(t *testing.T) {
	r := newRig(t, nil)
	r.access(t, 0x1000, 8, false)
	// Every word in the same line now hits.
	for off := uint64(0); off < 32; off += 8 {
		if lat := r.access(t, 0x1000+off, 8, false); lat > 20*sim.Nanosecond {
			t.Fatalf("offset %d latency %v, want hit", off, lat)
		}
	}
	// Next line misses again.
	if r.cache.Stats().Misses != 1 {
		t.Fatal("same-line accesses should not miss")
	}
	r.access(t, 0x1020, 8, false)
	if r.cache.Stats().Misses != 2 {
		t.Fatal("next line should miss")
	}
}

func TestStraddlingAccessSplits(t *testing.T) {
	r := newRig(t, nil)
	r.access(t, 0x101c, 8, false) // straddles lines 0x1000 and 0x1020
	st := r.cache.Stats()
	if st.Accesses != 2 || st.Misses != 2 {
		t.Fatalf("straddle: accesses=%d misses=%d, want 2/2", st.Accesses, st.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.SizeBytes = 2 * 1024 // 2KB, 32B lines, 4-way -> 16 sets
	})
	// Fill one set (set 0): lines at stride sets*line = 512B.
	for i := uint64(0); i < 4; i++ {
		r.access(t, i*512, 8, false)
	}
	// Touch line 0 to make line 1 the LRU, then bring in a 5th line.
	r.access(t, 0, 8, false)
	r.access(t, 4*512, 8, false)
	// Line 0 should still hit; line 512 (LRU victim) should miss.
	before := r.cache.Stats().Misses
	r.access(t, 0, 8, false)
	if r.cache.Stats().Misses != before {
		t.Fatal("MRU line was evicted")
	}
	r.access(t, 512, 8, false)
	if r.cache.Stats().Misses != before+1 {
		t.Fatal("LRU line survived eviction")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	r := newRig(t, func(c *Config) { c.SizeBytes = 2 * 1024 })
	for i := uint64(0); i < 4; i++ {
		r.access(t, i*512, 8, true) // fill set 0 with dirty lines
	}
	r.access(t, 4*512, 8, false) // evict a dirty victim
	if r.cache.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", r.cache.Stats().Writebacks)
	}
}

func TestCacheToCacheFill(t *testing.T) {
	r := newRig(t, nil)
	// CPU dirties the line (it produced the input data).
	r.coh.Write(r.cpu, 0x2000)
	lat := r.access(t, 0x2000, 8, false)
	st := r.cache.Stats()
	if st.C2CFills != 1 || st.MemFills != 0 {
		t.Fatalf("c2c/mem fills = %d/%d", st.C2CFills, st.MemFills)
	}
	// C2C supply avoids the DRAM activate: it should be faster than a
	// cold memory fill.
	r2 := newRig(t, nil)
	memLat := r2.access(t, 0x2000, 8, false)
	if lat >= memLat {
		t.Fatalf("c2c fill %v not faster than memory fill %v", lat, memLat)
	}
}

func TestWriteMissInvalidatesCPU(t *testing.T) {
	r := newRig(t, nil)
	r.coh.Write(r.cpu, 0x3000)
	r.access(t, 0x3000, 8, true)
	if r.coh.StateOf(r.cpu, 0x3000).Valid() {
		t.Fatal("CPU copy should be invalidated by accelerator write")
	}
	if r.coh.StateOf(1, 0x3000) != coherence.Modified {
		t.Fatal("accelerator should own the line Modified")
	}
}

func TestMSHRMerging(t *testing.T) {
	r := newRig(t, nil)
	done := 0
	r.cache.Access(0x4000, 8, false, func() { done++ })
	r.cache.Access(0x4008, 8, false, func() { done++ }) // same line, in flight
	r.eng.Run()
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	st := r.cache.Stats()
	if st.Misses != 1 || st.MSHRMerges != 1 {
		t.Fatalf("misses=%d merges=%d, want 1/1", st.Misses, st.MSHRMerges)
	}
}

func TestMSHRLimitStalls(t *testing.T) {
	r := newRig(t, func(c *Config) { c.MSHRs = 2; c.Ports = 8 })
	done := 0
	for i := uint64(0); i < 6; i++ {
		r.cache.Access(0x5000+i*64, 8, false, func() { done++ })
	}
	r.eng.Run()
	if done != 6 {
		t.Fatalf("completions = %d, want 6", done)
	}
	if r.cache.Stats().MSHRStalls == 0 {
		t.Fatal("expected MSHR stalls with 6 misses and 2 MSHRs")
	}
}

func TestHitUnderMiss(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Ports = 2 })
	// Warm a line.
	r.access(t, 0x6000, 8, false)
	// Start a miss, then a hit to the warm line: the hit must complete
	// while the miss is still outstanding.
	var missAt, hitAt sim.Tick
	r.cache.Access(0x7000, 8, false, func() { missAt = r.eng.Now() })
	r.cache.Access(0x6000, 8, false, func() { hitAt = r.eng.Now() })
	r.eng.Run()
	if hitAt >= missAt {
		t.Fatalf("hit (%v) should complete before outstanding miss (%v)", hitAt, missAt)
	}
}

func TestStridedPrefetcher(t *testing.T) {
	base := uint64(0x10000)
	run := func(pf bool) (misses, accesses uint64) {
		r := newRig(t, func(c *Config) { c.Prefetch = pf })
		for i := uint64(0); i < 32; i++ {
			r.access(t, base+i*32, 8, false) // sequential line stream
		}
		st := r.cache.Stats()
		return st.Misses, st.Accesses
	}
	missesOff, _ := run(false)
	missesOn, _ := run(true)
	if missesOff != 32 {
		t.Fatalf("no-prefetch misses = %d, want 32", missesOff)
	}
	if missesOn >= missesOff {
		t.Fatalf("prefetching did not reduce misses: %d vs %d", missesOn, missesOff)
	}
}

func TestPrefetcherTracksStride(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Prefetch = true })
	// Stride of 2 lines.
	for i := uint64(0); i < 16; i++ {
		r.access(t, 0x20000+i*64, 8, false)
	}
	if r.cache.Stats().Prefetches == 0 {
		t.Fatal("strided stream should trigger prefetches")
	}
	if r.cache.Stats().PrefetchHit == 0 {
		t.Fatal("prefetched lines should be demanded")
	}
}

func TestFlushDirty(t *testing.T) {
	r := newRig(t, nil)
	r.access(t, 0x8000, 8, true)
	r.access(t, 0x8040, 8, true)
	r.access(t, 0x8080, 8, false)
	flushed := false
	r.cache.FlushDirty(func() { flushed = true })
	r.eng.Run()
	if !flushed {
		t.Fatal("flush never completed")
	}
	if wb := r.cache.Stats().Writebacks; wb != 2 {
		t.Fatalf("writebacks = %d, want 2", wb)
	}
	// Everything is invalid now.
	before := r.cache.Stats().Misses
	r.access(t, 0x8000, 8, false)
	if r.cache.Stats().Misses != before+1 {
		t.Fatal("flushed line still resident")
	}
}

func TestFlushEmptyCompletes(t *testing.T) {
	r := newRig(t, nil)
	flushed := false
	r.cache.FlushDirty(func() { flushed = true })
	r.eng.Run()
	if !flushed {
		t.Fatal("empty flush never completed")
	}
}

func TestPortContention(t *testing.T) {
	// Warm two lines; then issue 4 hits in the same instant on a 1-port
	// vs 4-port cache and compare the last completion time.
	run := func(ports int) sim.Tick {
		r := newRig(t, func(c *Config) { c.Ports = ports })
		r.access(t, 0x9000, 8, false)
		var last sim.Tick
		for i := 0; i < 4; i++ {
			r.cache.Access(0x9000+uint64(i%4)*8, 8, false, func() { last = r.eng.Now() })
		}
		r.eng.Run()
		return last
	}
	if run(4) >= run(1) {
		t.Fatal("more ports should drain simultaneous hits faster")
	}
}

func TestConfigValidation(t *testing.T) {
	clock := sim.NewClockHz(100e6)
	bad := []Config{
		{},
		{SizeBytes: 1024, LineBytes: 48, Assoc: 4, Ports: 1, MSHRs: 1, Clock: clock},
		{SizeBytes: 1000, LineBytes: 32, Assoc: 4, Ports: 1, MSHRs: 1, Clock: clock},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should fail validation", i)
		}
	}
	if err := DefaultConfig(clock).Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: any random mix of reads and writes eventually completes every
// callback exactly once and preserves coherence invariants.
func TestRandomTrafficCompletes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, func(c *Config) {
			c.SizeBytes = 2 * 1024
			c.Prefetch = rng.Intn(2) == 0
			c.Ports = 1 + rng.Intn(4)
			c.MSHRs = 1 + rng.Intn(8)
		})
		// CPU pre-dirties a few lines.
		for i := 0; i < 8; i++ {
			r.coh.Write(r.cpu, uint64(rng.Intn(64))*32)
		}
		want := 100
		got := 0
		for i := 0; i < want; i++ {
			addr := uint64(rng.Intn(4096))
			size := uint32(1 + rng.Intn(8))
			r.cache.Access(addr, size, rng.Intn(2) == 0, func() { got++ })
		}
		r.eng.Run()
		if got != want {
			t.Logf("seed %d: %d of %d completed", seed, got, want)
			return false
		}
		if err := r.coh.CheckInvariants(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return r.cache.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLineSizeAffectsMissCount(t *testing.T) {
	// A sequential byte-granular walk misses once per line: doubling the
	// line size halves the demand misses.
	run := func(line uint32) uint64 {
		r := newRig(t, func(c *Config) { c.LineBytes = line })
		for off := uint64(0); off < 2048; off += 8 {
			r.access(t, off, 8, false)
		}
		return r.cache.Stats().Misses
	}
	m16, m32, m64 := run(16), run(32), run(64)
	if m16 != 128 || m32 != 64 || m64 != 32 {
		t.Fatalf("misses 16/32/64B = %d/%d/%d, want 128/64/32", m16, m32, m64)
	}
}

func TestAssociativityResolvesConflicts(t *testing.T) {
	// 8 lines mapping to one set thrash a 4-way set but fit an 8-way one.
	run := func(assoc int) uint64 {
		r := newRig(t, func(c *Config) {
			c.SizeBytes = 2 * 1024
			c.Assoc = assoc
		})
		// Set count = 2048/32/assoc; stride by sets*32 to stay in set 0.
		stride := uint64(2048 / 32 / assoc * 32)
		for round := 0; round < 4; round++ {
			for i := uint64(0); i < 8; i++ {
				r.access(t, i*stride, 8, false)
			}
		}
		return r.cache.Stats().Misses
	}
	m4, m8 := run(4), run(8)
	if m8 >= m4 {
		t.Fatalf("8-way misses (%d) should be below 4-way (%d)", m8, m4)
	}
	if m8 != 8 {
		t.Fatalf("8-way should only miss cold: %d", m8)
	}
}

func TestExternalInvalidationForcesRefetch(t *testing.T) {
	r := newRig(t, nil)
	r.access(t, 0x1000, 8, false)
	before := r.cache.Stats().Misses
	// The CPU writes the line: MOESI invalidates the accelerator's copy
	// even though its tag array still holds it.
	r.coh.Write(r.cpu, 0x1000)
	r.access(t, 0x1000, 8, false)
	st := r.cache.Stats()
	if st.Misses != before+1 {
		t.Fatalf("stale line served as hit: misses %d -> %d", before, st.Misses)
	}
	if st.C2CFills == 0 {
		t.Fatal("refetch should pull the CPU's dirty copy")
	}
}

func TestFillLatencyAccumulates(t *testing.T) {
	r := newRig(t, nil)
	r.access(t, 0x2000, 8, false)
	if r.cache.Stats().FillLatency == 0 {
		t.Fatal("no fill latency recorded")
	}
}

func TestTryFastHit(t *testing.T) {
	r := newRig(t, nil)
	// Cold: fast path reports a miss without side effects.
	if got := r.cache.TryFastHit(0x1000, 8, false); got != FastMiss {
		t.Fatalf("cold fast hit = %v", got)
	}
	if r.cache.Stats().Accesses != 0 {
		t.Fatal("failed fast hit counted an access")
	}
	// Warm the line; the fast path then completes reads synchronously.
	r.access(t, 0x1000, 8, false)
	if got := r.cache.TryFastHit(0x1008, 8, false); got != FastHit {
		t.Fatalf("warm fast hit = %v", got)
	}
	// Port consumed: a second attempt in the same instant is refused.
	if got := r.cache.TryFastHit(0x1000, 8, false); got != FastPortBusy {
		t.Fatalf("same-cycle second access = %v", got)
	}
	// Straddling accesses always take the slow path.
	if got := r.cache.TryFastHit(0x101c, 8, false); got != FastMiss {
		t.Fatalf("straddle = %v", got)
	}
}

func TestTryFastHitWriteNeedsOwnership(t *testing.T) {
	r := newRig(t, nil)
	// Fill via a read with another sharer so the line lands Shared.
	r.coh.Read(r.cpu, 0x2000&^31)
	r.access(t, 0x2000, 8, false)
	if st := r.coh.StateOf(1, 0x2000&^31); st != coherence.Shared {
		t.Fatalf("line state = %v, want S", st)
	}
	// A write cannot use the fast path from S (needs an upgrade).
	if got := r.cache.TryFastHit(0x2000, 8, true); got != FastMiss {
		t.Fatalf("shared-state write fast hit = %v", got)
	}
	// After a slow-path write (upgrade to M), writes fast-hit.
	r.access(t, 0x2000, 8, true)
	r.eng.RunUntil(r.eng.Now() + 100*sim.Nanosecond)
	if got := r.cache.TryFastHit(0x2000, 8, true); got != FastHit {
		t.Fatalf("owned write fast hit = %v", got)
	}
}

func TestRetryAccessServedAsHitAfterFill(t *testing.T) {
	// With 1 MSHR, a second miss to a line that another access is already
	// fetching queues as a retry and must complete as a hit on the filled
	// line rather than refetching.
	r := newRig(t, func(c *Config) { c.MSHRs = 1; c.Ports = 4 })
	done := 0
	r.cache.Access(0x3000, 8, false, func() { done++ })
	r.cache.Access(0x3100, 8, false, func() { done++ }) // different line: retry-queued
	r.cache.Access(0x3000, 8, false, func() { done++ }) // merges
	r.eng.Run()
	if done != 3 {
		t.Fatalf("completions = %d", done)
	}
	st := r.cache.Stats()
	if st.MSHRStalls == 0 {
		t.Fatal("no MSHR stall recorded")
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 distinct lines", st.Misses)
	}
}

func TestConfigAccessor(t *testing.T) {
	r := newRig(t, nil)
	if r.cache.Config().SizeBytes != 16*1024 {
		t.Fatal("Config accessor wrong")
	}
}
