// Package dma models the SoC's descriptor-based DMA engine together with
// the software coherence management that surrounds it (Sec II-B, III-C,
// IV-B of the paper).
//
// The typical flow: the CPU flushes every input line out of its private
// caches (84 ns/line, characterized on the Zedboard's Cortex-A9),
// invalidates the output region (71 ns/line), builds transfer descriptors,
// and kicks the engine; the engine then services descriptors one by one
// over the system bus.
//
// Two latency optimizations from the paper are implemented:
//
//   - Pipelined DMA: flush and transfer are broken into page-sized (4 KB)
//     chunks and overlapped — the DMA of chunk b runs under the flush of
//     chunk b+1, never starting a chunk before its own flush completes.
//     Each chunk pays a fixed 40-accelerator-cycle setup (descriptor fetch,
//     CPU kick-off, housekeeping).
//   - DMA-triggered computation: as a transfer's beats cross the bus, the
//     engine reports line-granularity arrivals so the accelerator's
//     full/empty bits can release loads before the whole transfer is done.
package dma

import (
	"fmt"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/mem/bus"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
)

// Config describes the DMA engine and the CPU-side coherence costs.
type Config struct {
	CPULineBytes uint32    // CPU cache line (32 B on the Cortex-A9)
	FlushPerLine sim.Tick  // 84 ns
	InvalPerLine sim.Tick  // 71 ns
	ChunkBytes   uint32    // pipelined chunk size (4 KB)
	SetupCycles  uint64    // per-transaction overhead (40 cycles)
	AccelClock   sim.Clock // clock in which SetupCycles is expressed
	Pipelined    bool      // overlap flush with transfer
	// Interleave orders the pipelined descriptor list round-robin across
	// arrays instead of array-by-array. DMA-triggered designs do this so
	// the leading chunks of every input arrive early: an accelerator
	// whose first iteration touches several arrays would otherwise stall
	// on whichever array the driver happened to list last.
	Interleave bool
	// HardwareCoherent makes the DMA engine a coherence participant, as
	// on the IBM Cell (the exception the paper notes in Sec IV-A): no CPU
	// flush or invalidate is needed — the engine snoops dirty lines out
	// of the CPU cache directly, paying SnoopLat per descriptor instead.
	// This is the paper's future-work direction realized as an extension.
	HardwareCoherent bool
	// SnoopLat is the CPU-cache supply latency for coherent transfers.
	SnoopLat sim.Tick
}

// DefaultConfig returns the paper's characterized parameters.
func DefaultConfig(accelClock sim.Clock) Config {
	return Config{
		CPULineBytes: 32,
		FlushPerLine: 84 * sim.Nanosecond,
		InvalPerLine: 71 * sim.Nanosecond,
		ChunkBytes:   4096,
		SetupCycles:  40,
		AccelClock:   accelClock,
		SnoopLat:     50 * sim.Nanosecond,
	}
}

// snoopSupplier answers coherent DMA reads from the CPU cache hierarchy
// after a fixed lookup latency (no DRAM access: the dirty data is on
// chip).
type snoopSupplier struct {
	eng *sim.Engine
	lat sim.Tick
}

// Access implements bus.Target.
func (s *snoopSupplier) Access(addr uint64, n uint32, write bool, done func()) {
	s.eng.After(s.lat, done)
}

// Transfer is one dmaLoad or dmaStore call: an array region moved between
// host memory and the accelerator's scratchpads.
type Transfer struct {
	Arr   int16  // destination/source array id, for arrival callbacks
	Base  uint64 // physical base address
	Bytes uint32
	Load  bool // true: memory -> scratchpad (dmaLoad)
}

// Stats aggregates engine activity.
type Stats struct {
	Descriptors      uint64
	BytesMoved       uint64
	LinesFlushed     uint64
	LinesInvalidated uint64
}

// Engine is the DMA engine plus CPU coherence-prep model.
type Engine struct {
	cfg    Config
	eng    *sim.Engine
	bus    bus.Fabric
	master int

	// OnArrive, when set, is called as load data arrives, with the array
	// id and the [off, off+n) byte span now valid.
	OnArrive func(arr int16, off, n uint32)
	// OnAbort, when set, is called once when a descriptor exhausts its
	// timeout retries (fault injection). The SoC layer wires it to
	// sim.Engine.Abort so the run fails fast with an error instead of
	// wedging.
	OnAbort func(error)

	flushIvals []obs.Interval
	dmaIvals   []obs.Interval
	snoop      *snoopSupplier // non-nil when HardwareCoherent
	stats      Stats
	inj        *fault.Injector

	// pending counts chunks accepted but not yet completed, for the
	// watchdog; cur* describe the descriptor currently on the bus.
	pending    int
	curAddr    uint64
	curBytes   uint32
	curAttempt int
	curActive  bool

	probe      *obs.Probe // descriptor transfers
	flushProbe *obs.Probe // CPU flush/invalidate windows
	chunkHist  *obs.Histogram
}

// New creates a DMA engine as a bus master.
func New(eng *sim.Engine, cfg Config, b bus.Fabric) *Engine {
	if cfg.CPULineBytes == 0 || cfg.ChunkBytes == 0 {
		panic("dma: invalid config")
	}
	e := &Engine{cfg: cfg, eng: eng, bus: b, master: b.RegisterMaster()}
	if cfg.HardwareCoherent {
		e.snoop = &snoopSupplier{eng: eng, lat: cfg.SnoopLat}
	}
	return e
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetFaults attaches a fault injector (nil disables injection). With a
// nonzero DMA timeout configured, each descriptor's bus transaction is
// guarded: a transaction that has not completed within the timeout is
// reissued, up to the injector's retry limit, after which the transfer is
// aborted through OnAbort.
func (e *Engine) SetFaults(inj *fault.Injector) { e.inj = inj }

// InFlight counts chunks accepted but not completed, for the watchdog.
func (e *Engine) InFlight() int { return e.pending }

// DumpInFlight renders the engine's stuck state for a watchdog diagnostic.
func (e *Engine) DumpInFlight() string {
	s := fmt.Sprintf("%d chunks outstanding", e.pending)
	if e.curActive {
		s += fmt.Sprintf("; current descriptor @%#x (%d B) attempt %d awaiting bus completion",
			e.curAddr, e.curBytes, e.curAttempt)
	}
	return s
}

// AttachProbe wires the transfer probe (one span per descriptor burst,
// load-chunk or store-chunk, with the array id as lane) and the flush
// probe (one span per CPU flush/invalidate window).
func (e *Engine) AttachProbe(transfer, flush *obs.Probe) {
	e.probe = transfer
	e.flushProbe = flush
}

// RegisterStats registers the engine counters under prefix, including a
// histogram of descriptor chunk sizes (the Sec IV-B1 design axis).
func (e *Engine) RegisterStats(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+".descriptors", "DMA descriptors serviced",
		func() uint64 { return e.stats.Descriptors })
	reg.CounterFunc(prefix+".bytes_moved", "bytes transferred by the engine",
		func() uint64 { return e.stats.BytesMoved })
	reg.CounterFunc(prefix+".lines_flushed", "CPU cache lines flushed for loads",
		func() uint64 { return e.stats.LinesFlushed })
	reg.CounterFunc(prefix+".lines_invalidated", "CPU cache lines invalidated for stores",
		func() uint64 { return e.stats.LinesInvalidated })
	e.chunkHist = reg.Histogram(prefix+".chunk_bytes", "descriptor chunk sizes",
		[]float64{512, 1024, 2048, 4096})
}

// FlushIntervals returns the CPU flush/invalidate activity windows.
func (e *Engine) FlushIntervals() []obs.Interval { return e.flushIvals }

// DMAIntervals returns the engine's transfer activity windows.
func (e *Engine) DMAIntervals() []obs.Interval { return e.dmaIvals }

// lines returns the CPU cache lines covering n bytes.
func (e *Engine) lines(n uint32) uint64 {
	return uint64((n + e.cfg.CPULineBytes - 1) / e.cfg.CPULineBytes)
}

// FlushTicks is the analytic CPU cost of flushing n bytes.
func (e *Engine) FlushTicks(n uint32) sim.Tick {
	return sim.Tick(e.lines(n)) * e.cfg.FlushPerLine
}

// InvalTicks is the analytic CPU cost of invalidating n bytes.
func (e *Engine) InvalTicks(n uint32) sim.Tick {
	return sim.Tick(e.lines(n)) * e.cfg.InvalPerLine
}

// flushWindow records a CPU coherence-prep window and reports it to the
// flush probe. The window is computed analytically at schedule time, so
// the span is emitted up front with its known end.
func (e *Engine) flushWindow(name string, start, end sim.Tick) {
	iv := obs.Interval{Start: uint64(start), End: uint64(end)}
	e.flushIvals = append(e.flushIvals, iv)
	if e.flushProbe.Enabled() {
		e.flushProbe.Fire(obs.Event{Name: name, Start: iv.Start, End: iv.End})
	}
}

// chunk is one flush+transfer unit.
type chunk struct {
	t     *Transfer
	off   uint32 // offset within the transfer
	bytes uint32
}

// chunks splits transfers for the pipelined mode, or keeps one chunk per
// descriptor for the baseline. With Interleave set, the chunk list is
// drawn round-robin across transfers.
func (e *Engine) chunks(ts []*Transfer) []chunk {
	if !e.cfg.Pipelined {
		out := make([]chunk, 0, len(ts))
		for _, t := range ts {
			out = append(out, chunk{t: t, off: 0, bytes: t.Bytes})
		}
		return out
	}
	perTransfer := make([][]chunk, len(ts))
	total := 0
	for i, t := range ts {
		for off := uint32(0); off < t.Bytes; off += e.cfg.ChunkBytes {
			n := e.cfg.ChunkBytes
			if off+n > t.Bytes {
				n = t.Bytes - off
			}
			perTransfer[i] = append(perTransfer[i], chunk{t: t, off: off, bytes: n})
			total++
		}
	}
	out := make([]chunk, 0, total)
	if !e.cfg.Interleave {
		for _, cs := range perTransfer {
			out = append(out, cs...)
		}
		return out
	}
	for round := 0; len(out) < total; round++ {
		for i := range perTransfer {
			if round < len(perTransfer[i]) {
				out = append(out, perTransfer[i][round])
			}
		}
	}
	return out
}

// LoadPhase runs the input side of an invocation: CPU flush of every load
// region and invalidate of every store region, then the dmaLoad transfers.
// done fires when the last load descriptor's data has fully arrived.
func (e *Engine) LoadPhase(transfers []Transfer, done func()) {
	var loads, stores []*Transfer
	for i := range transfers {
		if transfers[i].Load {
			loads = append(loads, &transfers[i])
		} else {
			stores = append(stores, &transfers[i])
		}
	}
	// Invalidation of the output regions is CPU work like the flush. In
	// the baseline it runs up front before anything else (Sec II-B). In
	// the pipelined mode it is deferred to the end of the flush chain:
	// no DMA load depends on it (it only has to finish before the CPU
	// consumes results), so it overlaps the transfer stream. A hardware-
	// coherent engine needs neither flushes nor invalidates.
	var inval sim.Tick
	if !e.cfg.HardwareCoherent {
		for _, t := range stores {
			inval += e.InvalTicks(t.Bytes)
			e.stats.LinesInvalidated += e.lines(t.Bytes)
		}
	}

	start := e.eng.Now()
	chs := e.chunks(loads)
	if len(chs) == 0 {
		if inval > 0 {
			e.flushWindow("invalidate", start, start+inval)
		}
		e.eng.After(inval, done)
		return
	}

	// CPU flush timeline, chunk by chunk. Coherent engines skip it: every
	// chunk is ready immediately and dirty data is snooped in flight.
	flushDone := make([]sim.Tick, len(chs))
	tcur := start
	if e.cfg.HardwareCoherent {
		for i := range flushDone {
			flushDone[i] = start
		}
		e.runChunks(chs, flushDone, false, done)
		return
	}
	if !e.cfg.Pipelined {
		tcur += inval
	}
	for i, c := range chs {
		f := e.FlushTicks(c.bytes)
		e.stats.LinesFlushed += e.lines(c.bytes)
		tcur += f
		flushDone[i] = tcur
	}
	if e.cfg.Pipelined {
		tcur += inval
	} else {
		// Baseline flow: the CPU finishes the entire flush before the
		// first transfer is programmed (Sec II-B).
		for i := range flushDone {
			flushDone[i] = tcur
		}
	}
	e.flushWindow("flush+invalidate", start, tcur)

	// DMA timeline: serial on the engine; chunk i waits for its flush.
	e.runChunks(chs, flushDone, false, done)
}

// StorePhase runs the output side: dmaStore transfers back to memory.
// Output regions were invalidated up front, so no CPU work remains.
func (e *Engine) StorePhase(transfers []Transfer, done func()) {
	var stores []*Transfer
	for i := range transfers {
		if !transfers[i].Load {
			stores = append(stores, &transfers[i])
		}
	}
	chs := e.chunks(stores)
	if len(chs) == 0 {
		done()
		return
	}
	ready := make([]sim.Tick, len(chs))
	now := e.eng.Now()
	for i := range ready {
		ready[i] = now
	}
	e.runChunks(chs, ready, true, done)
}

// runChunks services chunks in order: each pays the setup overhead, waits
// for its readiness time (flush completion for loads), and transfers over
// the bus. The engine is serial: one descriptor in flight at a time, which
// produces the paper's "serial data arrival effect".
func (e *Engine) runChunks(chs []chunk, readyAt []sim.Tick, write bool, done func()) {
	e.pending += len(chs)
	idx := 0
	var step func()
	step = func() {
		if idx >= len(chs) {
			done()
			return
		}
		c := chs[idx]
		ready := readyAt[idx]
		idx++
		begin := e.eng.Now()
		if ready > begin {
			begin = ready
		}
		setup := e.cfg.AccelClock.Cycles(e.cfg.SetupCycles)
		e.eng.Schedule(begin, func() {
			e.eng.After(setup, func() {
				tstart := e.eng.Now()
				e.stats.Descriptors++
				e.stats.BytesMoved += uint64(c.bytes)
				if e.chunkHist != nil {
					e.chunkHist.Observe(float64(c.bytes))
				}
				fin := func() {
					e.pending--
					e.curActive = false
					iv := obs.Interval{Start: uint64(tstart), End: uint64(e.eng.Now())}
					e.dmaIvals = append(e.dmaIvals, iv)
					if e.probe.Enabled() {
						name := "load-chunk"
						if write {
							name = "store-chunk"
						}
						e.probe.Fire(obs.Event{Name: name, Start: iv.Start, End: iv.End,
							Lane: int32(c.t.Arr), Bytes: uint64(c.bytes)})
					}
					step()
				}
				e.issue(c, write, fin)
			})
		})
	}
	step()
}

// issue puts one descriptor on the bus, guarded — when fault injection
// configures a DMA timeout — by a retry-or-abort watchdog: an attempt that
// does not complete within the timeout is counted and reissued; once the
// retry limit is exhausted the transfer aborts through OnAbort. The per-
// attempt live flag makes both a late completion of a timed-out attempt and
// a stale timeout event of a completed attempt harmless no-ops.
func (e *Engine) issue(c chunk, write bool, fin func()) {
	addr := c.t.Base + uint64(c.off)
	timeout := e.inj.DMATimeout()
	attempt := 0
	var try func()
	try = func() {
		attempt++
		e.curAddr, e.curBytes, e.curAttempt, e.curActive = addr, c.bytes, attempt, true
		finish := fin
		if timeout > 0 {
			live := true
			a := attempt
			finish = func() {
				if !live {
					return // this attempt already timed out; a retry owns the chunk
				}
				live = false
				fin()
			}
			e.eng.After(timeout, func() {
				if !live {
					return // attempt completed before the timeout fired
				}
				live = false
				e.inj.CountDMATimeout(e.eng.Now(), addr, a)
				if a > e.inj.DMARetryLimit() {
					e.inj.CountDMAAbort(e.eng.Now(), addr, a)
					if e.OnAbort != nil {
						e.OnAbort(fmt.Errorf("dma: descriptor @%#x (%d B) timed out after %d attempts", addr, c.bytes, a))
					}
					return
				}
				e.inj.CountDMARetry(e.eng.Now(), addr, a)
				try()
			})
		}
		t := bus.Txn{Master: e.master, Addr: addr, Bytes: c.bytes, Write: write, Done: finish}
		if !write && e.snoop != nil {
			t.Target = e.snoop
		}
		if !write && e.OnArrive != nil {
			arr, base := c.t.Arr, c.off
			last := uint32(0)
			t.Gran = e.cfg.CPULineBytes
			t.Progress = func(cum uint32) {
				e.OnArrive(arr, base+last, cum-last)
				last = cum
			}
		}
		e.bus.Submit(t)
	}
	try()
}
