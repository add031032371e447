package bus

import (
	"reflect"
	"testing"

	"gem5aladdin/internal/sim"
)

func newCrossbar(t *testing.T, widthBits int, targetLat sim.Tick, slaves, burst int) (*sim.Engine, *Crossbar, *fakeTarget) {
	t.Helper()
	eng := sim.NewEngine()
	tgt := &fakeTarget{eng: eng, latency: targetLat}
	x := NewCrossbar(eng, CrossbarConfig{
		WidthBits: widthBits, Clock: sim.NewClockHz(100e6),
		Slaves: slaves, BurstBeats: burst,
	}, tgt)
	return eng, x, tgt
}

func newMesh(t *testing.T, widthBits int, targetLat sim.Tick, dim int) (*sim.Engine, *Mesh, *fakeTarget) {
	t.Helper()
	eng := sim.NewEngine()
	tgt := &fakeTarget{eng: eng, latency: targetLat}
	m := NewMesh(eng, MeshConfig{
		WidthBits: widthBits, Clock: sim.NewClockHz(100e6), Dim: dim,
	}, tgt)
	return eng, m, tgt
}

// runFabricTransfer drives one read and one write through f and returns
// their completion times.
func runFabricTransfer(eng *sim.Engine, f Fabric, bytes uint32) (readAt, writeAt sim.Tick) {
	m := f.RegisterMaster()
	f.Submit(Txn{Master: m, Addr: 0x1000, Bytes: bytes, Done: func() { readAt = eng.Now() }})
	eng.Run()
	f.Submit(Txn{Master: m, Addr: 0x2000, Bytes: bytes, Write: true, Done: func() { writeAt = eng.Now() - readAt }})
	eng.Run()
	return readAt, writeAt
}

func TestCrossbarSingleTransfer(t *testing.T) {
	eng, x, tgt := newCrossbar(t, 32, 5*sim.Nanosecond, 4, 16)
	readAt, writeAt := runFabricTransfer(eng, x, 64)
	if readAt == 0 || writeAt == 0 {
		t.Fatal("transfers never completed")
	}
	// 64 B read at 4 B/beat, burst 16: addr 10ns, target 5ns, one
	// 16-beat response burst 160ns => 175ns.
	if readAt != 175*sim.Nanosecond {
		t.Errorf("read completed at %v, want 175ns", readAt)
	}
	if len(tgt.log) != 2 {
		t.Fatalf("target saw %d accesses, want 2", len(tgt.log))
	}
	s := x.Stats()
	if s.Transactions != 2 || s.BytesMoved != 128 {
		t.Errorf("stats = %+v, want 2 transactions moving 128 B", s)
	}
	if x.InFlight() != 0 {
		t.Errorf("InFlight() = %d after drain, want 0", x.InFlight())
	}
}

// TestCrossbarParallelRoutes is the crossbar's reason to exist: transfers
// from different masters to different slaves must overlap, completing in
// roughly the time one takes on the bus.
func TestCrossbarParallelRoutes(t *testing.T) {
	eng, x, _ := newCrossbar(t, 32, 0, 4, 64)
	m0, m1 := x.RegisterMaster(), x.RegisterMaster()
	var done0, done1 sim.Tick
	// 0x0000 and 0x1000 land on different 4 KiB-interleaved slaves.
	x.Submit(Txn{Master: m0, Addr: 0x0000, Bytes: 256, Done: func() { done0 = eng.Now() }})
	x.Submit(Txn{Master: m1, Addr: 0x1000, Bytes: 256, Done: func() { done1 = eng.Now() }})
	eng.Run()
	if done0 == 0 || done1 == 0 {
		t.Fatal("transfers never completed")
	}
	solo := done0
	if done1 > solo+solo/4 {
		t.Errorf("parallel transfer finished at %v, want near the solo %v: routes are serializing", done1, solo)
	}

	// Same addresses on the bus serialize: the second transfer must wait
	// for the first one's data phase.
	engB, b, _ := newBus(t, 32, 0)
	bm0, bm1 := b.RegisterMaster(), b.RegisterMaster()
	var bdone1 sim.Tick
	b.Submit(Txn{Master: bm0, Addr: 0x0000, Bytes: 256, Done: func() {}})
	b.Submit(Txn{Master: bm1, Addr: 0x1000, Bytes: 256, Done: func() { bdone1 = engB.Now() }})
	engB.Run()
	if bdone1 <= done1 {
		t.Errorf("bus (%v) should be slower than crossbar (%v) on disjoint parallel transfers", bdone1, done1)
	}
}

// TestCrossbarBurstInterleave checks that a long transfer releases its
// slave between bursts: a short conflicting read completes long before the
// bulk transfer does.
func TestCrossbarBurstInterleave(t *testing.T) {
	eng, x, _ := newCrossbar(t, 32, 0, 1, 4)
	bulk, short := x.RegisterMaster(), x.RegisterMaster()
	var bulkAt, shortAt sim.Tick
	x.Submit(Txn{Master: bulk, Addr: 0x0000, Bytes: 4096, Done: func() { bulkAt = eng.Now() }})
	x.Submit(Txn{Master: short, Addr: 0x0000, Bytes: 16, Done: func() { shortAt = eng.Now() }})
	eng.Run()
	if bulkAt == 0 || shortAt == 0 {
		t.Fatal("transfers never completed")
	}
	if shortAt >= bulkAt {
		t.Errorf("short read (%v) starved behind the bulk transfer (%v): bursts are not interleaving", shortAt, bulkAt)
	}
}

func TestCrossbarReadStreamProgress(t *testing.T) {
	eng, x, _ := newCrossbar(t, 32, 0, 4, 8)
	m := x.RegisterMaster()
	var marks []uint32
	var doneAt sim.Tick
	x.Submit(Txn{Master: m, Addr: 0x0000, Bytes: 256, Gran: 64,
		Progress: func(cum uint32) { marks = append(marks, cum) },
		Done:     func() { doneAt = eng.Now() }})
	eng.Run()
	if doneAt == 0 {
		t.Fatal("stream never completed")
	}
	want := []uint32{64, 128, 192, 256}
	if len(marks) != len(want) {
		t.Fatalf("progress marks = %v, want %v", marks, want)
	}
	for i, w := range want {
		if marks[i] != w {
			t.Fatalf("progress marks = %v, want %v", marks, want)
		}
	}
}

func TestMeshSingleTransfer(t *testing.T) {
	eng, m, tgt := newMesh(t, 32, 5*sim.Nanosecond, 2)
	readAt, writeAt := runFabricTransfer(eng, m, 64)
	if readAt == 0 || writeAt == 0 {
		t.Fatal("transfers never completed")
	}
	// Master 0 sits one hop from the memory port: request 1 header flit
	// (1 hop + 1 flit = 20ns), target 5ns, response 1+16 flits (180ns)
	// => 205ns.
	if readAt != 205*sim.Nanosecond {
		t.Errorf("read completed at %v, want 205ns", readAt)
	}
	if len(tgt.log) != 2 {
		t.Fatalf("target saw %d accesses, want 2", len(tgt.log))
	}
	if m.InFlight() != 0 {
		t.Errorf("InFlight() = %d after drain, want 0", m.InFlight())
	}
}

// TestMeshHopScaling pins XY routing: a master placed further from the
// memory port pays proportionally more hops.
func TestMeshHopScaling(t *testing.T) {
	eng, m, _ := newMesh(t, 32, 0, 4)
	masters := make([]int, 6)
	for i := range masters {
		masters[i] = m.RegisterMaster()
	}
	// Master 0 -> node 1 (1 hop); master 5 -> node 6 = (2,1) (3 hops).
	var near, far sim.Tick
	m.Submit(Txn{Master: masters[0], Addr: 0x0, Bytes: 4, Done: func() { near = eng.Now() }})
	eng.Run()
	base := eng.Now()
	m.Submit(Txn{Master: masters[5], Addr: 0x0, Bytes: 4, Done: func() { far = eng.Now() - base }})
	eng.Run()
	if near == 0 || far == 0 {
		t.Fatal("transfers never completed")
	}
	if far <= near {
		t.Errorf("3-hop transfer (%v) not slower than 1-hop (%v)", far, near)
	}
}

// TestMeshLinkBackPressure pins link serialization: two masters sharing the
// final link into the memory port must serialize, while the ones on
// disjoint paths overlap.
func TestMeshLinkBackPressure(t *testing.T) {
	eng, m, _ := newMesh(t, 32, 0, 2)
	m0 := m.RegisterMaster() // node 1
	var solo sim.Tick
	m.Submit(Txn{Master: m0, Addr: 0x0, Bytes: 512, Done: func() { solo = eng.Now() }})
	eng.Run()

	eng2, m2, _ := newMesh(t, 32, 0, 2)
	a := m2.RegisterMaster() // node 1
	b := m2.RegisterMaster() // node 2
	c := m2.RegisterMaster() // node 3
	var last sim.Tick
	fin := func() { last = eng2.Now() }
	m2.Submit(Txn{Master: a, Addr: 0x0, Bytes: 512, Done: fin})
	m2.Submit(Txn{Master: b, Addr: 0x0, Bytes: 512, Done: fin})
	m2.Submit(Txn{Master: c, Addr: 0x0, Bytes: 512, Done: fin})
	eng2.Run()
	// Three 512 B responses all cross the links into their masters, but
	// the three response paths leave node 0 on two different links; the
	// total must exceed one solo transfer yet beat strict 3x serialization.
	if last <= solo {
		t.Errorf("three contending transfers (%v) not slower than one (%v)", last, solo)
	}
	if last >= 3*solo {
		t.Errorf("three transfers took %v, ≥3x solo %v: disjoint links are serializing", last, solo)
	}
}

func TestMeshReadStreamProgress(t *testing.T) {
	eng, m, _ := newMesh(t, 32, 0, 2)
	mm := m.RegisterMaster()
	var marks []uint32
	var doneAt sim.Tick
	m.Submit(Txn{Master: mm, Addr: 0x0, Bytes: 256, Gran: 64,
		Progress: func(cum uint32) { marks = append(marks, cum) },
		Done:     func() { doneAt = eng.Now() }})
	eng.Run()
	if doneAt == 0 {
		t.Fatal("stream never completed")
	}
	want := []uint32{64, 128, 192, 256}
	if len(marks) != len(want) {
		t.Fatalf("progress marks = %v, want %v", marks, want)
	}
	for i, w := range want {
		if marks[i] != w {
			t.Fatalf("progress marks = %v, want %v", marks, want)
		}
	}
}

// TestFabricDeterminism reruns an identical multi-master workload on each
// backend and demands bit-identical completion times and stats.
func TestFabricDeterminism(t *testing.T) {
	build := map[string]func(eng *sim.Engine, tgt Target) Fabric{
		"bus": func(eng *sim.Engine, tgt Target) Fabric {
			return New(eng, Config{WidthBits: 32, Clock: sim.NewClockHz(100e6)}, tgt)
		},
		"crossbar": func(eng *sim.Engine, tgt Target) Fabric {
			return NewCrossbar(eng, CrossbarConfig{WidthBits: 32, Clock: sim.NewClockHz(100e6)}, tgt)
		},
		"mesh": func(eng *sim.Engine, tgt Target) Fabric {
			return NewMesh(eng, MeshConfig{WidthBits: 32, Clock: sim.NewClockHz(100e6), Dim: 3}, tgt)
		},
	}
	for name, mk := range build {
		run := func() ([]sim.Tick, Stats) {
			eng := sim.NewEngine()
			tgt := &fakeTarget{eng: eng, latency: 7 * sim.Nanosecond}
			f := mk(eng, tgt)
			var times []sim.Tick
			for i := 0; i < 4; i++ {
				m := f.RegisterMaster()
				for j := 0; j < 8; j++ {
					addr := uint64(i)<<14 | uint64(j)<<7
					f.Submit(Txn{Master: m, Addr: addr, Bytes: 96, Write: j%2 == 0, Done: func() { times = append(times, eng.Now()) }})
				}
			}
			eng.Run()
			return times, f.Stats()
		}
		t1, s1 := run()
		t2, s2 := run()
		if len(t1) != 32 {
			t.Fatalf("%s: %d completions, want 32", name, len(t1))
		}
		if s1 != s2 {
			t.Errorf("%s: stats differ across reruns: %+v vs %+v", name, s1, s2)
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Errorf("%s: completion %d differs across reruns: %v vs %v", name, i, t1[i], t2[i])
				break
			}
		}
	}
}

// TestBusIsSinglePortCrossbar guards that the bus's completion-order
// response queue stays inside New. A NewCrossbar with one slave port and
// bursts long enough never to split a transfer matches the bus on every
// completion tick, progress mark and counter, with faults off and on,
// whenever only one master issues or every master issues only writes.
// With two or more masters issuing reads they must diverge on every seed,
// on response order alone: the bus drains read responses in completion
// order, while each crossbar slave round-robins its response channels by
// master (and advances the same round-robin pointer its requests use).
// Giving every crossbar the bus's order would move multi-master crossbar
// results and their pinned digests.
func TestBusIsSinglePortCrossbar(t *testing.T) {
	bus := driveBackends[0].mk
	xbar := func(eng *sim.Engine, tgt Target) Fabric {
		return NewCrossbar(eng, CrossbarConfig{WidthBits: 64, Clock: sim.NewClockHz(100e6),
			Slaves: 1, BurstBeats: 1 << 20}, tgt)
	}
	const seeds = 50
	for _, masters := range []int{1, 2, 4} {
		for _, faults := range []int{faultsOff, faultsOn} {
			diverged := 0
			for seed := int64(1); seed <= int64(seeds); seed++ {
				for _, mix := range []int{mixAll, mixWrites} {
					a := drive(bus, seed, masters, mix, faults)
					b := drive(xbar, seed, masters, mix, faults)
					same := reflect.DeepEqual(a.marks, b.marks) && a.stats == b.stats && a.faults == b.faults
					switch {
					case mix == mixAll && masters > 1:
						if !same {
							diverged++
						}
					case !same:
						t.Errorf("masters=%d faults=%d seed=%d mix=%d: bus and one-port crossbar differ (stats %+v vs %+v)",
							masters, faults, seed, mix, a.stats, b.stats)
					}
				}
			}
			if masters > 1 && diverged != seeds {
				t.Errorf("masters=%d faults=%d: reads from several masters diverged on %d of %d seeds, want all: has the crossbar's response order changed?",
					masters, faults, diverged, seeds)
			}
		}
	}
}

// TestInFlightCountsEachTransactionOnce steps a lone write and then a lone
// read that takes several crossbar bursts through each backend: the
// watchdog count must never exceed the one transaction held.
func TestInFlightCountsEachTransactionOnce(t *testing.T) {
	for _, be := range driveBackends {
		for _, write := range []bool{true, false} {
			eng := sim.NewEngine()
			f := be.mk(eng, addrTarget{eng: eng, step: 10 * sim.Nanosecond})
			m := f.RegisterMaster()
			done := false
			f.Submit(Txn{Master: m, Addr: 0x1040, Bytes: 4096, Write: write, Done: func() { done = true }})
			for peak := f.InFlight(); eng.Step(); {
				if n := f.InFlight(); n > peak {
					peak = n
				}
				if peak > 1 {
					t.Fatalf("%s write=%v: InFlight() = %d at %v with one transaction submitted",
						be.name, write, peak, eng.Now())
				}
			}
			if !done || f.InFlight() != 0 {
				t.Errorf("%s write=%v: done=%v, InFlight() = %d after drain", be.name, write, done, f.InFlight())
			}
		}
	}
}

// TestSubmitRejectsMalformedStreams checks the shared validation on every
// backend: stream progress needs a nonzero granularity, and only a read
// delivers data to observe.
func TestSubmitRejectsMalformedStreams(t *testing.T) {
	for _, be := range driveBackends {
		for _, tx := range []Txn{
			{Bytes: 64, Progress: func(uint32) {}, Done: func() {}},
			{Bytes: 64, Gran: 32, Write: true, Progress: func(uint32) {}, Done: func() {}},
		} {
			eng := sim.NewEngine()
			f := be.mk(eng, addrTarget{eng: eng})
			tx.Master = f.RegisterMaster()
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Submit(%+v) did not panic", be.name, tx)
					}
				}()
				f.Submit(tx)
			}()
		}
	}
}
