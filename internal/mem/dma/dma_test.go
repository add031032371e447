package dma

import (
	"testing"

	"gem5aladdin/internal/mem/bus"
	"gem5aladdin/internal/mem/dram"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
)

func newEngine(t *testing.T, pipelined bool) (*sim.Engine, *Engine) {
	t.Helper()
	eng := sim.NewEngine()
	d := dram.New(eng, dram.DefaultConfig())
	b := bus.New(eng, bus.Config{WidthBits: 32, Clock: sim.NewClockHz(100e6)}, d)
	cfg := DefaultConfig(sim.NewClockHz(100e6))
	cfg.Pipelined = pipelined
	return eng, New(eng, cfg, b)
}

func TestFlushAndInvalTicks(t *testing.T) {
	_, e := newEngine(t, false)
	// 4096 bytes = 128 lines of 32 B.
	if got := e.FlushTicks(4096); got != 128*84*sim.Nanosecond {
		t.Fatalf("flush(4096) = %v", got)
	}
	if got := e.InvalTicks(4096); got != 128*71*sim.Nanosecond {
		t.Fatalf("inval(4096) = %v", got)
	}
	// Partial lines round up.
	if got := e.FlushTicks(33); got != 2*84*sim.Nanosecond {
		t.Fatalf("flush(33) = %v", got)
	}
}

func TestBaselineLoadSequencing(t *testing.T) {
	eng, e := newEngine(t, false)
	var doneAt sim.Tick
	e.LoadPhase([]Transfer{
		{Arr: 0, Base: 0x10000, Bytes: 4096, Load: true},
		{Arr: 1, Base: 0x20000, Bytes: 4096, Load: false}, // output: invalidate only
	}, func() { doneAt = eng.Now() })
	eng.Run()

	flush := obs.Merge(e.FlushIntervals())
	dmas := obs.Merge(e.DMAIntervals())
	if len(flush) != 1 || len(dmas) != 1 {
		t.Fatalf("intervals: flush=%v dma=%v", flush, dmas)
	}
	// Baseline: DMA starts only after the whole flush (+inval) window.
	if dmas[0].Start < flush[0].End {
		t.Fatalf("baseline DMA started at %v before flush ended at %v",
			dmas[0].Start, flush[0].End)
	}
	wantFlush := e.InvalTicks(4096) + e.FlushTicks(4096)
	if got := obs.Measure(flush); got != uint64(wantFlush) {
		t.Fatalf("flush window = %v, want %v", got, wantFlush)
	}
	if uint64(doneAt) != dmas[0].End {
		t.Fatalf("done at %v, dma end %v", doneAt, dmas[0].End)
	}
	if e.Stats().Descriptors != 1 {
		t.Fatalf("descriptors = %d", e.Stats().Descriptors)
	}
}

func TestPipelinedOverlapsFlushWithDMA(t *testing.T) {
	transfers := []Transfer{{Arr: 0, Base: 0x10000, Bytes: 16 * 1024, Load: true}}

	run := func(pipelined bool) (total sim.Tick, e *Engine) {
		eng, e := newEngine(t, pipelined)
		var doneAt sim.Tick
		e.LoadPhase(transfers, func() { doneAt = eng.Now() })
		eng.Run()
		return doneAt, e
	}
	base, _ := run(false)
	pipe, pe := run(true)
	if pipe >= base {
		t.Fatalf("pipelined (%v) not faster than baseline (%v)", pipe, base)
	}
	// 16 KB / 4 KB chunks = 4 descriptors.
	if pe.Stats().Descriptors != 4 {
		t.Fatalf("pipelined descriptors = %d, want 4", pe.Stats().Descriptors)
	}
	// In the best case all but one chunk's flush is hidden: the paper's
	// bound. Flush of 16 KB = 512 lines * 84ns = 43us; DMA of 16 KB at
	// ~4 B per 10ns ~ 41us; so pipelined total should be near
	// flush_chunk0 + max(flush_rest, dma_total) rather than flush+dma.
	if pipe > base-3*pe.FlushTicks(4096)/2 {
		t.Fatalf("pipelining hid too little flush: %v vs %v", pipe, base)
	}
}

func TestPipelinedChunkWaitsForOwnFlush(t *testing.T) {
	eng, e := newEngine(t, true)
	e.LoadPhase([]Transfer{{Arr: 0, Base: 0, Bytes: 8192, Load: true}}, func() {})
	eng.Run()
	// First DMA interval must start no earlier than the first chunk's
	// flush completes (4 KB = 128 lines * 84 ns) plus setup.
	dmas := e.DMAIntervals()
	if len(dmas) != 2 {
		t.Fatalf("dma intervals = %d", len(dmas))
	}
	firstFlush := e.FlushTicks(4096)
	if dmas[0].Start < uint64(firstFlush) {
		t.Fatalf("chunk 0 transfer at %v before its flush done %v",
			dmas[0].Start, firstFlush)
	}
}

func TestArrivalCallbacksSequential(t *testing.T) {
	eng, e := newEngine(t, true)
	type arrival struct{ off, n uint32 }
	var got []arrival
	e.OnArrive = func(arr int16, off, n uint32) {
		if arr != 3 {
			t.Errorf("arr = %d", arr)
		}
		got = append(got, arrival{off, n})
	}
	e.LoadPhase([]Transfer{{Arr: 3, Base: 0, Bytes: 4096, Load: true}}, func() {})
	eng.Run()
	if len(got) == 0 {
		t.Fatal("no arrivals reported")
	}
	var cum uint32
	for _, a := range got {
		if a.off != cum {
			t.Fatalf("arrival at %d, expected sequential %d", a.off, cum)
		}
		cum += a.n
	}
	if cum != 4096 {
		t.Fatalf("total arrived = %d", cum)
	}
}

func TestArrivalsSpreadOverTransfer(t *testing.T) {
	eng, e := newEngine(t, true)
	var times []sim.Tick
	e.OnArrive = func(arr int16, off, n uint32) { times = append(times, eng.Now()) }
	e.LoadPhase([]Transfer{{Arr: 0, Base: 0, Bytes: 4096, Load: true}}, func() {})
	eng.Run()
	if len(times) < 4 {
		t.Fatalf("arrivals = %d", len(times))
	}
	// Arrivals must be strictly spread, not bunched at completion.
	if times[0] == times[len(times)-1] {
		t.Fatal("all arrivals at the same instant")
	}
}

func TestStorePhase(t *testing.T) {
	eng, e := newEngine(t, false)
	var doneAt sim.Tick
	e.StorePhase([]Transfer{
		{Arr: 0, Base: 0x10000, Bytes: 2048, Load: false},
		{Arr: 1, Base: 0x20000, Bytes: 1024, Load: true}, // ignored here
	}, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt == 0 {
		t.Fatal("store phase never finished")
	}
	if e.Stats().BytesMoved != 2048 {
		t.Fatalf("bytes moved = %d", e.Stats().BytesMoved)
	}
	if len(e.FlushIntervals()) != 0 {
		t.Fatal("store phase should not flush")
	}
}

func TestEmptyPhases(t *testing.T) {
	eng, e := newEngine(t, false)
	calls := 0
	e.LoadPhase(nil, func() { calls++ })
	e.StorePhase(nil, func() { calls++ })
	eng.Run()
	if calls != 2 {
		t.Fatalf("callbacks = %d", calls)
	}
}

func TestSetupOverheadCharged(t *testing.T) {
	eng, e := newEngine(t, false)
	var doneAt sim.Tick
	// A tiny 32 B store: time should be dominated by the 40-cycle setup.
	e.StorePhase([]Transfer{{Base: 0, Bytes: 32}}, func() { doneAt = eng.Now() })
	eng.Run()
	setup := e.cfg.AccelClock.Cycles(e.cfg.SetupCycles)
	if doneAt < setup {
		t.Fatalf("done at %v, before setup %v elapsed", doneAt, setup)
	}
}

func newCoherentEngine(t *testing.T) (*sim.Engine, *Engine) {
	t.Helper()
	eng := sim.NewEngine()
	d := dram.New(eng, dram.DefaultConfig())
	b := bus.New(eng, bus.Config{WidthBits: 32, Clock: sim.NewClockHz(100e6)}, d)
	cfg := DefaultConfig(sim.NewClockHz(100e6))
	cfg.Pipelined = true
	cfg.HardwareCoherent = true
	return eng, New(eng, cfg, b)
}

func TestCoherentDMANoFlush(t *testing.T) {
	eng, e := newCoherentEngine(t)
	var doneAt sim.Tick
	e.LoadPhase([]Transfer{
		{Arr: 0, Base: 0, Bytes: 8192, Load: true},
		{Arr: 1, Base: 0x10000, Bytes: 8192, Load: false},
	}, func() { doneAt = eng.Now() })
	eng.Run()
	if got := e.Stats().LinesFlushed; got != 0 {
		t.Fatalf("coherent DMA flushed %d lines", got)
	}
	if got := e.Stats().LinesInvalidated; got != 0 {
		t.Fatalf("coherent DMA invalidated %d lines", got)
	}
	if len(e.FlushIntervals()) != 0 {
		t.Fatal("coherent DMA recorded flush activity")
	}
	// The first transfer can begin right away (setup only).
	dmas := e.DMAIntervals()
	if len(dmas) == 0 {
		t.Fatal("no transfers")
	}
	setup := e.cfg.AccelClock.Cycles(e.cfg.SetupCycles)
	if dmas[0].Start > uint64(setup+sim.Nanosecond) {
		t.Fatalf("first coherent chunk started at %v, want ~%v", dmas[0].Start, setup)
	}
	if doneAt == 0 {
		t.Fatal("load phase never finished")
	}
}

func TestCoherentDMAFasterThanSoftwareCoherence(t *testing.T) {
	transfers := []Transfer{
		{Arr: 0, Base: 0, Bytes: 16 * 1024, Load: true},
		{Arr: 1, Base: 0x10000, Bytes: 16 * 1024, Load: false},
	}
	run := func(coherent bool) sim.Tick {
		eng := sim.NewEngine()
		d := dram.New(eng, dram.DefaultConfig())
		b := bus.New(eng, bus.Config{WidthBits: 32, Clock: sim.NewClockHz(100e6)}, d)
		cfg := DefaultConfig(sim.NewClockHz(100e6))
		cfg.Pipelined = true
		cfg.HardwareCoherent = coherent
		e := New(eng, cfg, b)
		var doneAt sim.Tick
		e.LoadPhase(transfers, func() { doneAt = eng.Now() })
		eng.Run()
		return doneAt
	}
	sw, hw := run(false), run(true)
	if hw >= sw {
		t.Fatalf("coherent DMA (%v) not faster than software coherence (%v)", hw, sw)
	}
	// The win should be roughly the flush time that disappeared.
	if sw-hw < 10*sim.Microsecond {
		t.Fatalf("coherent DMA saved only %v", sw-hw)
	}
}

func TestCoherentDMAArrivalsStillStream(t *testing.T) {
	eng, e := newCoherentEngine(t)
	var cum uint32
	e.OnArrive = func(arr int16, off, n uint32) { cum += n }
	e.LoadPhase([]Transfer{{Arr: 0, Base: 0, Bytes: 4096, Load: true}}, func() {})
	eng.Run()
	if cum != 4096 {
		t.Fatalf("arrivals covered %d bytes", cum)
	}
}
