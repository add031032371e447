// Package cache implements the accelerator-attached hardware-managed cache
// of Sec III-D / IV-D: a set-associative, write-back, write-allocate cache
// with MSHRs for hit-under-miss and multiple outstanding misses, a strided
// hardware prefetcher, LRU replacement, and MOESI coherence with the CPU's
// cache hierarchy over the snooping system bus.
//
// The cache is the "pull-based, fine-grained" alternative to scratchpad +
// DMA: it loads data on demand at line granularity and handles coherence
// transparently, at the cost of tag/TLB energy and bus-visible miss
// latency.
package cache

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/mem/bus"
	"gem5aladdin/internal/mem/coherence"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
)

// Config describes one cache instance. All fields mirror the sweep axes in
// the paper's Fig 3 table.
type Config struct {
	SizeBytes uint64    // 2-64 KB
	LineBytes uint32    // 16/32/64 B
	Assoc     int       // 4 or 8 ways
	Ports     int       // 1-8 accesses accepted per cycle
	MSHRs     int       // 16 in the paper
	Clock     sim.Clock // cache/accelerator clock domain
	HitCycles uint64    // access latency on a hit
	Prefetch  bool      // strided hardware prefetcher
	// PrefetchDegree is how many strides ahead the prefetcher runs once a
	// stream is confirmed; 0 means 1.
	PrefetchDegree int
	SnoopLat       sim.Tick // CPU-side lookup latency for cache-to-cache fills
}

// DefaultConfig returns a mid-range accelerator cache.
func DefaultConfig(clock sim.Clock) Config {
	return Config{
		SizeBytes:      16 * 1024,
		LineBytes:      32,
		Assoc:          4,
		Ports:          1,
		MSHRs:          16,
		Clock:          clock,
		HitCycles:      1,
		Prefetch:       true,
		PrefetchDegree: 4,
		SnoopLat:       40 * sim.Nanosecond,
	}
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.SizeBytes == 0 || c.LineBytes == 0 || c.Assoc <= 0 || c.Ports <= 0 || c.MSHRs <= 0 {
		return fmt.Errorf("cache: non-positive parameter in %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	lines := c.SizeBytes / uint64(c.LineBytes)
	if lines%uint64(c.Assoc) != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	sets := lines / uint64(c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Stats aggregates cache activity.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64 // demand misses that allocated an MSHR
	MSHRMerges  uint64 // demand misses merged into an in-flight MSHR
	MSHRStalls  uint64 // accesses delayed because all MSHRs were busy
	Writebacks  uint64
	Upgrades    uint64 // write hits needing an invalidation broadcast
	Prefetches  uint64
	PrefetchHit uint64   // demand access served by a completed prefetch line
	C2CFills    uint64   // fills supplied by the CPU cache (MOESI)
	MemFills    uint64   // fills supplied by DRAM
	FillLatency sim.Tick // summed demand miss latency
}

type way struct {
	line     uint64 // line-aligned physical address
	lru      uint64
	valid    bool
	prefetch bool // installed by the prefetcher, not yet demanded
}

// mshrEntry is one slot of the fixed-capacity MSHR file. Slots live in a
// contiguous array sized to Config.MSHRs: lookup is a bounded linear scan
// (at most MSHRs entries, all in one or two cache lines), which at the
// paper's 16-MSHR scale beats both a Go map (per-miss allocation, hashing)
// and open-address probing (tombstone bookkeeping on the frequent
// fill-completion deletes). fill is the slot's pre-bound bus-completion
// callback; per-fill state (start tick, supplier) lives in the slot so the
// closure is built once per slot, not once per miss.
type mshrEntry struct {
	line     uint64
	waiters  []func()
	start    sim.Tick // fill request tick, for FillLatency
	fill     func()   // pre-bound completion reading this slot
	valid    bool
	prefetch bool
	c2c      bool // fill supplied cache-to-cache rather than from DRAM
}

// retryReq is an access stalled on MSHR exhaustion, replayed on the next
// fill completion. A struct, not a closure: the retry queue churns on every
// MSHR-pressure phase and must not allocate per entry.
type retryReq struct {
	line  uint64
	done  func()
	write bool
}

type streamEntry struct {
	page   uint64
	last   uint64 // last miss line address
	stride int64
	conf   int
	used   uint64
}

// snoopSupplier is the bus target used for cache-to-cache fills: the CPU's
// cache responds after a fixed lookup latency instead of a DRAM access.
type snoopSupplier struct {
	eng *sim.Engine
	lat sim.Tick
}

func (s *snoopSupplier) Access(addr uint64, bytesN uint32, write bool, done func()) {
	s.eng.After(s.lat, done)
}

// Cache is one accelerator-attached cache.
type Cache struct {
	cfg   Config
	eng   *sim.Engine
	bus   bus.Fabric
	bm    int // bus master id
	coh   *coherence.Controller
	self  int // coherence peer id
	snoop *snoopSupplier

	// OnIdle, when set, fires whenever the last outstanding fill
	// completes. Drain logic (the accelerator's mfence) waits on it when
	// prefetches are still in flight after the final demand access.
	OnIdle func()

	// ways holds every cache line contiguously: set s occupies
	// ways[s*assoc : (s+1)*assoc]. One flat allocation instead of a
	// per-set slice-of-slices — the tag scan on every access walks
	// adjacent memory.
	ways     []way
	assoc    int
	setShift uint
	setMask  uint64
	lruClock uint64

	mshrs      []mshrEntry // fixed capacity cfg.MSHRs; valid slots in use
	inUse      int
	retries    []retryReq
	retrySpare []retryReq // recycled backing for the drain swap
	waiterPool [][]func() // recycled waiter buffers

	ports []sim.Tick // earliest-free tick per port

	streams []streamEntry

	stats Stats
	probe *obs.Probe
	inj   *fault.Injector
}

// New builds a cache wired to the bus and coherence controller. peer is the
// cache's id from coh.AddPeer().
func New(eng *sim.Engine, cfg Config, b bus.Fabric, coh *coherence.Controller, peer int) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / uint64(cfg.LineBytes)
	nsets := int(lines) / cfg.Assoc
	c := &Cache{
		cfg: cfg, eng: eng, bus: b, bm: b.RegisterMaster(),
		coh: coh, self: peer,
		snoop:    &snoopSupplier{eng: eng, lat: cfg.SnoopLat},
		ways:     make([]way, nsets*cfg.Assoc),
		assoc:    cfg.Assoc,
		setShift: uint(bits.TrailingZeros32(cfg.LineBytes)),
		setMask:  uint64(nsets - 1),
		mshrs:    make([]mshrEntry, cfg.MSHRs),
		ports:    make([]sim.Tick, cfg.Ports),
		streams:  make([]streamEntry, 4),
	}
	for i := range c.mshrs {
		slot := &c.mshrs[i]
		slot.fill = func() { c.fillComplete(slot) }
	}
	return c
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// AttachProbe wires an observability probe; the cache fires one span per
// fill (miss allocation to data installed, named by the supplier) and an
// instant per writeback.
func (c *Cache) AttachProbe(p *obs.Probe) { c.probe = p }

// RegisterStats registers the cache counters under prefix.
func (c *Cache) RegisterStats(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+".accesses", "accesses (hits + misses)",
		func() uint64 { return c.stats.Accesses })
	reg.CounterFunc(prefix+".hits", "accesses served from a resident line",
		func() uint64 { return c.stats.Hits })
	reg.CounterFunc(prefix+".misses", "demand misses allocating an MSHR",
		func() uint64 { return c.stats.Misses })
	reg.CounterFunc(prefix+".mshr_merges", "demand misses merged into in-flight MSHRs",
		func() uint64 { return c.stats.MSHRMerges })
	reg.CounterFunc(prefix+".mshr_stalls", "accesses delayed by MSHR exhaustion",
		func() uint64 { return c.stats.MSHRStalls })
	reg.CounterFunc(prefix+".writebacks", "dirty lines written back",
		func() uint64 { return c.stats.Writebacks })
	reg.CounterFunc(prefix+".upgrades", "write hits needing invalidation broadcasts",
		func() uint64 { return c.stats.Upgrades })
	reg.CounterFunc(prefix+".prefetches", "prefetch fills issued",
		func() uint64 { return c.stats.Prefetches })
	reg.CounterFunc(prefix+".prefetch_hits", "demand accesses served by prefetched lines",
		func() uint64 { return c.stats.PrefetchHit })
	reg.CounterFunc(prefix+".c2c_fills", "fills supplied by the CPU cache (MOESI)",
		func() uint64 { return c.stats.C2CFills })
	reg.CounterFunc(prefix+".mem_fills", "fills supplied by DRAM",
		func() uint64 { return c.stats.MemFills })
	reg.Formula(prefix+".hit_rate", "hits / accesses",
		func() float64 {
			if c.stats.Accesses == 0 {
				return 0
			}
			return float64(c.stats.Hits) / float64(c.stats.Accesses)
		})
	reg.Formula(prefix+".avg_miss_ns", "mean demand fill latency",
		func() float64 {
			if c.stats.Misses == 0 {
				return 0
			}
			return c.stats.FillLatency.Nanos() / float64(c.stats.Misses)
		})
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// InFlight reports outstanding MSHRs, for drain/mfence logic.
func (c *Cache) InFlight() int { return c.inUse }

// SetFaults attaches a fault injector (nil disables injection). Each access
// rolls for a bit flip in the data array line being touched; SECDED corrects
// singles and detects doubles without changing hit/miss timing.
func (c *Cache) SetFaults(inj *fault.Injector) { c.inj = inj }

// DumpInFlight lists the outstanding MSHRs (sorted by line address) plus any
// MSHR-stalled retries, for a watchdog diagnostic.
func (c *Cache) DumpInFlight() string {
	busy := make([]*mshrEntry, 0, len(c.mshrs))
	for i := range c.mshrs {
		if c.mshrs[i].valid {
			busy = append(busy, &c.mshrs[i])
		}
	}
	sort.Slice(busy, func(i, j int) bool { return busy[i].line < busy[j].line })
	var s strings.Builder
	fmt.Fprintf(&s, "%d MSHRs busy, %d stalled retries", c.inUse, len(c.retries))
	for _, m := range busy {
		kind := "demand"
		if m.prefetch {
			kind = "prefetch"
		}
		fmt.Fprintf(&s, "\nmshr line %#x: %s, %d waiters", m.line, kind, len(m.waiters))
	}
	return s.String()
}

// fireWriteback reports a dirty-line eviction to the probe.
func (c *Cache) fireWriteback() {
	if c.probe.Enabled() {
		now := uint64(c.eng.Now())
		c.probe.Fire(obs.Event{Name: "writeback", Start: now, End: now,
			Bytes: uint64(c.cfg.LineBytes)})
	}
}

func (c *Cache) lineOf(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }
func (c *Cache) setOf(line uint64) int     { return int((line >> c.setShift) & c.setMask) }

// setWays returns the ways of line's set as a window into the flat array.
func (c *Cache) setWays(line uint64) []way {
	s := c.setOf(line) * c.assoc
	return c.ways[s : s+c.assoc]
}

// findMSHR scans the MSHR file for an in-flight fill of line.
func (c *Cache) findMSHR(line uint64) *mshrEntry {
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.mshrs[i].line == line {
			return &c.mshrs[i]
		}
	}
	return nil
}

// FastHitResult is the outcome of a pipelined hit attempt.
type FastHitResult uint8

// Fast-hit outcomes.
const (
	// FastHit: the access completed as a single-cycle pipelined hit.
	FastHit FastHitResult = iota
	// FastPortBusy: all ports are occupied this cycle; retry next cycle.
	FastPortBusy
	// FastMiss: the line is not resident in a usable state (or the access
	// straddles lines); take the variable-latency path.
	FastMiss
)

// TryFastHit attempts the pipelined hit path: accelerator lanes issue hits
// like scratchpad accesses and keep running, stalling only on misses
// (Sec IV-D). It succeeds only when a port is free this instant, the line
// is resident, and no coherence transaction is required; on success the
// access is fully accounted (LRU, stats, port occupancy). On failure it
// has no side effects.
func (c *Cache) TryFastHit(addr uint64, size uint32, write bool) FastHitResult {
	line := c.lineOf(addr)
	if line != c.lineOf(addr+uint64(size)-1) {
		return FastMiss
	}
	// A free port right now?
	now := c.eng.Now()
	port := -1
	for i := range c.ports {
		if c.ports[i] <= now {
			port = i
			break
		}
	}
	if port < 0 {
		return FastPortBusy
	}
	set := c.setWays(line)
	for i := range set {
		w := &set[i]
		if !w.valid || w.line != line {
			continue
		}
		st := c.coh.StateOf(c.self, line)
		if !st.Valid() {
			// Externally invalidated (another agent wrote the line):
			// the tag is stale; fall to the miss path.
			w.valid = false
			return FastMiss
		}
		if write {
			// Writes need M or E locally to avoid a bus upgrade.
			if st != coherence.Modified && st != coherence.Exclusive {
				return FastMiss
			}
			c.coh.Write(c.self, line)
		} else {
			c.coh.Read(c.self, line)
		}
		c.ports[port] = now + c.cfg.Clock.Cycles(1)
		c.lruClock++
		w.lru = c.lruClock
		if w.prefetch {
			w.prefetch = false
			c.stats.PrefetchHit++
		}
		c.stats.Accesses++
		c.stats.Hits++
		c.inj.ECC(fault.SiteCache, now, line)
		return FastHit
	}
	return FastMiss
}

// Access performs a load or store of size bytes at physical address addr.
// done fires when the data is available (loads) or accepted (stores).
// Accesses that straddle a line boundary are split and complete when both
// halves do.
func (c *Cache) Access(addr uint64, size uint32, write bool, done func()) {
	first := c.lineOf(addr)
	last := c.lineOf(addr + uint64(size) - 1)
	if first != last {
		remaining := 2
		sub := func() {
			remaining--
			if remaining == 0 {
				done()
			}
		}
		firstLen := uint32(first + uint64(c.cfg.LineBytes) - addr)
		c.Access(addr, firstLen, write, sub)
		c.Access(first+uint64(c.cfg.LineBytes), size-firstLen, write, sub)
		return
	}
	// Port arbitration, inlined so the common case — a port free right
	// now — calls lookup directly instead of building a deferred closure.
	best := 0
	for i := range c.ports {
		if c.ports[i] < c.ports[best] {
			best = i
		}
	}
	start := c.eng.Now()
	if c.ports[best] > start {
		start = c.ports[best]
	}
	start = c.cfg.Clock.NextEdge(start)
	c.ports[best] = start + c.cfg.Clock.Cycles(1)
	if start == c.eng.Now() {
		c.lookup(addr, write, done)
		return
	}
	c.eng.Schedule(start, func() { c.lookup(addr, write, done) })
}

func (c *Cache) lookup(addr uint64, write bool, done func()) {
	c.stats.Accesses++
	line := c.lineOf(addr)
	c.inj.ECC(fault.SiteCache, c.eng.Now(), line)
	set := c.setWays(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.line == line {
			if !c.coh.StateOf(c.self, line).Valid() {
				// Externally invalidated: stale tag, go refetch.
				w.valid = false
				break
			}
			// Resident. Stores may still need a coherence upgrade.
			c.lruClock++
			w.lru = c.lruClock
			if w.prefetch {
				w.prefetch = false
				c.stats.PrefetchHit++
			}
			c.stats.Hits++
			if write {
				res := c.coh.Write(c.self, line)
				if res.Invalidations > 0 {
					c.stats.Upgrades++
					// Invalidation broadcast: command-only transaction.
					c.bus.Submit(bus.Txn{Master: c.bm, Addr: line, Bytes: 8, Write: true,
						Target: c.snoop, Done: func() {}})
				}
			} else {
				c.coh.Read(c.self, line)
			}
			c.eng.After(c.cfg.Clock.Cycles(c.cfg.HitCycles), done)
			return
		}
	}
	c.miss(line, write, done, false)
}

// miss handles a demand (or prefetch) miss for the given line.
func (c *Cache) miss(line uint64, write bool, done func(), prefetch bool) {
	if m := c.findMSHR(line); m != nil {
		// Merge into the in-flight fill.
		if !prefetch {
			c.stats.MSHRMerges++
			m.waiters = append(m.waiters, done)
			m.prefetch = false // a demand merge claims the prefetch
		}
		return
	}
	if c.inUse >= c.cfg.MSHRs {
		if prefetch {
			return // drop prefetches under MSHR pressure
		}
		c.stats.MSHRStalls++
		c.retries = append(c.retries, retryReq{line: line, write: write, done: done})
		return
	}
	var m *mshrEntry
	for i := range c.mshrs {
		if !c.mshrs[i].valid {
			m = &c.mshrs[i]
			break
		}
	}
	m.line, m.valid, m.prefetch = line, true, prefetch
	m.waiters = m.waiters[:0]
	if !prefetch {
		m.waiters = append(m.waiters, done)
		c.stats.Misses++
	} else {
		c.stats.Prefetches++
	}
	c.inUse++

	var res coherence.Result
	if write && !prefetch {
		res = c.coh.Write(c.self, line)
	} else {
		res = c.coh.Read(c.self, line)
	}
	m.c2c = res.Src == coherence.SrcCache
	m.start = c.eng.Now()
	fill := bus.Txn{Master: c.bm, Addr: line, Bytes: c.cfg.LineBytes, Done: m.fill}
	if m.c2c {
		c.stats.C2CFills++
		fill.Target = c.snoop
	} else {
		c.stats.MemFills++
	}
	c.bus.Submit(fill)

	if c.cfg.Prefetch && !prefetch {
		c.trainPrefetcher(line)
	}
}

// fillComplete is an MSHR slot's pre-bound bus-completion callback: it
// installs the line, frees the slot, and resumes waiters and retries.
func (c *Cache) fillComplete(m *mshrEntry) {
	now := c.eng.Now()
	c.stats.FillLatency += now - m.start
	if c.probe.Enabled() {
		name := "fill-mem"
		if m.c2c {
			name = "fill-c2c"
		}
		if m.prefetch {
			name = "prefetch-" + name
		}
		c.probe.Fire(obs.Event{Name: name, Start: uint64(m.start),
			End: uint64(now), Bytes: uint64(c.cfg.LineBytes)})
	}
	c.install(m.line, m.prefetch)
	// Detach the waiter list before freeing the slot: a resumed waiter (or
	// a drained retry) may re-allocate this slot and must not append into
	// the list still being walked. The detached backing is recycled through
	// waiterPool once the walk finishes.
	waiters := m.waiters
	m.waiters = nil
	if n := len(c.waiterPool); n > 0 {
		m.waiters = c.waiterPool[n-1]
		c.waiterPool = c.waiterPool[:n-1]
	}
	m.valid = false
	c.inUse--
	for i, w := range waiters {
		waiters[i] = nil // drop the closure reference once called
		w()
	}
	if waiters != nil {
		c.waiterPool = append(c.waiterPool, waiters[:0])
	}
	c.drainRetries()
	if c.inUse == 0 && c.OnIdle != nil {
		c.OnIdle()
	}
}

// retryAccess replays an MSHR-stalled access: the line may have been
// filled (or re-requested) while it waited, so it goes through a fresh
// residence check rather than straight to a fill.
func (c *Cache) retryAccess(line uint64, write bool, done func()) {
	set := c.setWays(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			if !c.coh.StateOf(c.self, line).Valid() {
				set[i].valid = false
				break
			}
			c.lruClock++
			set[i].lru = c.lruClock
			if write {
				c.coh.Write(c.self, line)
			} else {
				c.coh.Read(c.self, line)
			}
			c.eng.After(c.cfg.Clock.Cycles(c.cfg.HitCycles), done)
			return
		}
	}
	c.miss(line, write, done, false)
}

func (c *Cache) drainRetries() {
	if len(c.retries) == 0 {
		return
	}
	// Swap in the spare backing so replays that stall again append to a
	// fresh queue; the drained backing becomes the next spare.
	pending := c.retries
	c.retries = c.retrySpare[:0]
	for i := range pending {
		r := pending[i]
		pending[i].done = nil // drop the closure reference once replayed
		c.retryAccess(r.line, r.write, r.done)
	}
	c.retrySpare = pending[:0]
}

// install places a filled line, evicting the LRU way if needed. prefetch
// marks lines brought in speculatively so a later demand hit is attributed
// to the prefetcher.
func (c *Cache) install(line uint64, prefetch bool) {
	set := c.setWays(line)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		old := set[victim].line
		res := c.coh.Evict(c.self, old)
		if res.Writeback {
			c.stats.Writebacks++
			c.fireWriteback()
			c.bus.Submit(bus.Txn{Master: c.bm, Addr: old, Bytes: c.cfg.LineBytes, Write: true, Done: func() {}})
		}
	}
	c.lruClock++
	set[victim] = way{line: line, lru: c.lruClock, valid: true, prefetch: prefetch}
}

// trainPrefetcher observes a demand-miss line and issues a strided prefetch
// once a stream shows a stable stride.
func (c *Cache) trainPrefetcher(line uint64) {
	page := line >> 12
	c.lruClock++
	var ent *streamEntry
	for i := range c.streams {
		if c.streams[i].page == page && c.streams[i].conf >= 0 {
			ent = &c.streams[i]
			break
		}
	}
	if ent == nil {
		// Allocate LRU stream slot.
		ent = &c.streams[0]
		for i := range c.streams {
			if c.streams[i].used < ent.used {
				ent = &c.streams[i]
			}
		}
		*ent = streamEntry{page: page, last: line, used: c.lruClock}
		return
	}
	stride := int64(line) - int64(ent.last)
	if stride == ent.stride && stride != 0 {
		ent.conf++
	} else {
		ent.stride = stride
		ent.conf = 1
	}
	ent.last = line
	ent.used = c.lruClock
	if ent.conf >= 2 {
		degree := c.cfg.PrefetchDegree
		if degree <= 0 {
			degree = 1
		}
		for d := 1; d <= degree; d++ {
			next := uint64(int64(line) + int64(d)*ent.stride)
			if !c.resident(next) {
				c.miss(next, false, nil, true)
			}
		}
	}
}

func (c *Cache) resident(line uint64) bool {
	set := c.setWays(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			return true
		}
	}
	return c.findMSHR(line) != nil
}

// FlushDirty writes every dirty line back to memory and invalidates the
// cache. done fires when the last writeback completes. Used at accelerator
// completion when results must be visible in memory rather than supplied
// lazily through coherence.
func (c *Cache) FlushDirty(done func()) {
	outstanding := 1 // sentinel so zero-writeback flushes still complete
	finish := func() {
		outstanding--
		if outstanding == 0 {
			done()
		}
	}
	for wi := range c.ways {
		w := &c.ways[wi]
		if !w.valid {
			continue
		}
		res := c.coh.Evict(c.self, w.line)
		w.valid = false
		if res.Writeback {
			c.stats.Writebacks++
			c.fireWriteback()
			outstanding++
			c.bus.Submit(bus.Txn{Master: c.bm, Addr: w.line, Bytes: c.cfg.LineBytes, Write: true, Done: finish})
		}
	}
	finish()
}
