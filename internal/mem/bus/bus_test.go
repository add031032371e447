package bus

import (
	"testing"

	"gem5aladdin/internal/sim"
)

// fakeTarget responds after a fixed latency and records accesses.
type fakeTarget struct {
	eng     *sim.Engine
	latency sim.Tick
	log     []uint64
}

func (f *fakeTarget) Access(addr uint64, bytes uint32, write bool, done func()) {
	f.log = append(f.log, addr)
	f.eng.After(f.latency, done)
}

func newBus(t *testing.T, widthBits int, targetLat sim.Tick) (*sim.Engine, *Crossbar, *fakeTarget) {
	t.Helper()
	eng := sim.NewEngine()
	tgt := &fakeTarget{eng: eng, latency: targetLat}
	b := New(eng, Config{WidthBits: widthBits, Clock: sim.NewClockHz(100e6)}, tgt)
	return eng, b, tgt
}

// occupancy reports how long one n-byte write holds an idle bus.
func occupancy(t *testing.T, widthBits int, n uint32) sim.Tick {
	eng, b, _ := newBus(t, widthBits, 0)
	b.Submit(Txn{Master: b.RegisterMaster(), Bytes: n, Write: true, Done: func() {}})
	eng.Run()
	return b.Stats().BusyTicks
}

func TestOccupancy(t *testing.T) {
	// 32-bit = 4 B/cycle at 10ns: 64 bytes -> 1 + 16 cycles = 170ns.
	if got := occupancy(t, 32, 64); got != 170*sim.Nanosecond {
		t.Fatalf("occupancy(64) = %v, want 170ns", got)
	}
	// 1 byte still needs a full data cycle.
	if got := occupancy(t, 32, 1); got != 20*sim.Nanosecond {
		t.Fatalf("occupancy(1) = %v, want 20ns", got)
	}
}

func TestWiderBusFaster(t *testing.T) {
	if occupancy(t, 64, 256) >= occupancy(t, 32, 256) {
		t.Fatal("64-bit bus should move 256B faster than 32-bit")
	}
}

func TestSingleTransaction(t *testing.T) {
	eng, b, tgt := newBus(t, 32, 5*sim.Nanosecond)
	m := b.RegisterMaster()
	var doneAt sim.Tick
	b.Submit(Txn{Master: m, Addr: 0x1000, Bytes: 64, Done: func() { doneAt = eng.Now() }})
	eng.Run()
	if doneAt == 0 {
		t.Fatal("transaction never completed")
	}
	// Addr phase 0-10ns, target responds at 15ns, data phase 15-175ns.
	if doneAt != 175*sim.Nanosecond {
		t.Fatalf("done at %v, want 175ns", doneAt)
	}
	if len(tgt.log) != 1 || tgt.log[0] != 0x1000 {
		t.Fatalf("target log = %v", tgt.log)
	}
}

func TestSlowTargetDelaysCompletion(t *testing.T) {
	eng, b, _ := newBus(t, 32, 500*sim.Nanosecond)
	m := b.RegisterMaster()
	var doneAt sim.Tick
	b.Submit(Txn{Master: m, Bytes: 4, Done: func() { doneAt = eng.Now() }})
	eng.Run()
	// Addr phase 10ns + target 500ns + data phase 10ns = 520ns.
	if doneAt != 520*sim.Nanosecond {
		t.Fatalf("done at %v, want 520ns", doneAt)
	}
}

func TestZeroBytesImmediate(t *testing.T) {
	eng, b, tgt := newBus(t, 32, 0)
	m := b.RegisterMaster()
	called := false
	b.Submit(Txn{Master: m, Bytes: 0, Done: func() { called = true }})
	if !called {
		t.Fatal("zero-byte access should complete synchronously")
	}
	eng.Run()
	if len(tgt.log) != 0 {
		t.Fatal("zero-byte access reached the target")
	}
	if b.Stats().Transactions != 0 {
		t.Fatal("zero-byte access counted as a transaction")
	}
}

func TestBandwidthSerialization(t *testing.T) {
	eng, b, _ := newBus(t, 32, 0)
	m := b.RegisterMaster()
	var last sim.Tick
	n := 10
	for i := 0; i < n; i++ {
		b.Submit(Txn{Master: m, Addr: uint64(i * 64), Bytes: 64, Write: true, Done: func() { last = eng.Now() }})
	}
	eng.Run()
	// Each 64B transaction holds the bus 170ns; 10 of them serialize.
	if want := sim.Tick(n) * 170 * sim.Nanosecond; last != want {
		t.Fatalf("last done at %v, want %v", last, want)
	}
	st := b.Stats()
	if st.BytesMoved != uint64(n*64) {
		t.Fatalf("bytes moved = %d", st.BytesMoved)
	}
	if st.Transactions != uint64(n) {
		t.Fatalf("transactions = %d", st.Transactions)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	eng, b, tgt := newBus(t, 32, 0)
	m0 := b.RegisterMaster()
	m1 := b.RegisterMaster()
	// Master 0 floods; master 1 submits one request at the same instant.
	for i := 0; i < 5; i++ {
		b.Submit(Txn{Master: m0, Addr: uint64(0xA000 + i), Bytes: 4, Done: func() {}})
	}
	b.Submit(Txn{Master: m1, Addr: 0xB000, Bytes: 4, Done: func() {}})
	eng.Run()
	// Master 1's single request must be served second, not last.
	if len(tgt.log) != 6 {
		t.Fatalf("target saw %d accesses", len(tgt.log))
	}
	if tgt.log[1] != 0xB000 {
		t.Fatalf("round robin violated: order %v", tgt.log)
	}
}

func TestWaitTicksAccumulate(t *testing.T) {
	eng, b, _ := newBus(t, 32, 0)
	m := b.RegisterMaster()
	b.Submit(Txn{Master: m, Bytes: 64, Done: func() {}})
	b.Submit(Txn{Master: m, Addr: 64, Bytes: 64, Done: func() {}})
	eng.Run()
	st := b.Stats()
	// The second read's address phase waits behind the first's (10ns);
	// its data phase then queues behind the first response, but queueing
	// of response phases is not charged as arbitration wait.
	if st.WaitTicks != 10*sim.Nanosecond {
		t.Fatalf("wait ticks = %v, want 10ns", st.WaitTicks)
	}
}

func TestUnknownMasterPanics(t *testing.T) {
	_, b, _ := newBus(t, 32, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown master did not panic")
		}
	}()
	b.Submit(Txn{Master: 3, Bytes: 4, Done: func() {}})
}

func TestInvalidWidthPanics(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid width did not panic")
		}
	}()
	New(eng, Config{WidthBits: 12, Clock: sim.NewClockHz(100e6)}, &fakeTarget{eng: eng})
}

func TestReadStreamProgress(t *testing.T) {
	eng, b, _ := newBus(t, 32, 5*sim.Nanosecond)
	m := b.RegisterMaster()
	var marks []uint32
	var doneAt sim.Tick
	b.Submit(Txn{Master: m, Bytes: 256, Gran: 64,
		Progress: func(cum uint32) { marks = append(marks, cum) },
		Done:     func() { doneAt = eng.Now() }})
	eng.Run()
	want := []uint32{64, 128, 192, 256}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
	if doneAt == 0 {
		t.Fatal("stream never completed")
	}
}

func TestReadStreamViaCustomTarget(t *testing.T) {
	eng, b, tgt := newBus(t, 32, 0)
	slow := &fakeTarget{eng: eng, latency: 300 * sim.Nanosecond}
	m := b.RegisterMaster()
	done := false
	b.Submit(Txn{Master: m, Addr: 0x40, Bytes: 64, Gran: 32, Target: slow,
		Progress: func(uint32) {}, Done: func() { done = true }})
	eng.Run()
	if !done {
		t.Fatal("stream never completed")
	}
	if len(slow.log) != 1 {
		t.Fatalf("custom target saw %d accesses", len(slow.log))
	}
	if len(tgt.log) != 0 {
		t.Fatal("default target used despite ReadStreamVia")
	}
}

func TestReadStreamZeroGranPanics(t *testing.T) {
	_, b, _ := newBus(t, 32, 0)
	m := b.RegisterMaster()
	defer func() {
		if recover() == nil {
			t.Fatal("zero granularity did not panic")
		}
	}()
	b.Submit(Txn{Master: m, Bytes: 64, Gran: 0, Progress: func(uint32) {}, Done: func() {}})
}

func TestResponsePriorityOverNewRequests(t *testing.T) {
	// One read's response must win arbitration against a flood of writes
	// that were enqueued after the response became ready.
	eng, b, _ := newBus(t, 32, 100*sim.Nanosecond)
	m := b.RegisterMaster()
	var readDone sim.Tick
	b.Submit(Txn{Master: m, Bytes: 4, Done: func() { readDone = eng.Now() }})
	// Writes queued while the read's target is busy.
	var lastWrite sim.Tick
	eng.Schedule(50*sim.Nanosecond, func() {
		for i := 0; i < 5; i++ {
			b.Submit(Txn{Master: m, Addr: uint64(0x1000 + i*64), Bytes: 64, Write: true, Done: func() { lastWrite = eng.Now() }})
		}
	})
	eng.Run()
	// Response ready at ~110ns while write0 (granted at 50ns) holds the
	// bus until 220ns; the response then beats writes 1-4 and finishes
	// its 10ns data phase at 230ns. Any later means it was starved.
	if readDone > 230*sim.Nanosecond {
		t.Fatalf("read response starved until %v", readDone)
	}
	if lastWrite < readDone {
		t.Fatal("all writes finished before the read response")
	}
}
