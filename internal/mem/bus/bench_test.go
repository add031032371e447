package bus

import (
	"testing"

	"gem5aladdin/internal/sim"
)

// benchBackends are the fabrics the microbenchmarks cover, each at its
// defaults on a 64-bit, 100 MHz data path.
var benchBackends = []struct {
	name string
	mk   func(*sim.Engine, Target) Fabric
}{
	{"bus", driveBackends[0].mk},
	{"crossbar", driveBackends[1].mk},
	{"mesh", func(eng *sim.Engine, tgt Target) Fabric {
		return NewMesh(eng, MeshConfig{WidthBits: 64, Clock: sim.NewClockHz(100e6)}, tgt)
	}},
}

// fabricOp builds one fabric on a fresh engine and returns an operation
// that submits one unit of work and runs it to completion: "rw" is a 64-B
// read and a 64-B write, "stream" a 256-B read with 64-B progress granules
// (four marks). Callbacks are bound once, so what the operation allocates
// is the fabric's own doing.
func fabricOp(mk func(*sim.Engine, Target) Fabric, work string) func() {
	eng := sim.NewEngine()
	f := mk(eng, addrTarget{eng: eng, step: 10 * sim.Nanosecond})
	m := f.RegisterMaster()
	done := func() {}
	progress := func(uint32) {}
	if work == "stream" {
		return func() {
			f.Submit(Txn{Master: m, Addr: 0x1000, Bytes: 256, Gran: 64, Progress: progress, Done: done})
			eng.Run()
		}
	}
	return func() {
		f.Submit(Txn{Master: m, Addr: 0x1000, Bytes: 64, Done: done})
		f.Submit(Txn{Master: m, Addr: 0x2040, Bytes: 64, Write: true, Done: done})
		eng.Run()
	}
}

// BenchmarkFabric measures each backend's host cost per transaction shape;
// run it with -benchmem.
func BenchmarkFabric(b *testing.B) {
	for _, be := range benchBackends {
		for _, work := range []string{"rw", "stream"} {
			b.Run(be.name+"/"+work, func(b *testing.B) {
				op := fabricOp(be.mk, work)
				op() // warm queues, pools and the event heap
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
			})
		}
	}
}

// TestFabricSubmitAllocs gates the steady-state allocations of the bus and
// the default crossbar: a read and a write allocate nothing, and a stream
// allocates at most one scheduled callback per progress mark. The mesh
// allocates its packets and is not gated.
func TestFabricSubmitAllocs(t *testing.T) {
	for _, be := range benchBackends[:2] {
		for _, c := range []struct {
			work string
			max  float64
		}{{"rw", 0}, {"stream", 4}} {
			op := fabricOp(be.mk, c.work)
			op()
			if got := testing.AllocsPerRun(200, op); got > c.max {
				t.Errorf("%s %s: %v allocs per op, want <= %v", be.name, c.work, got, c.max)
			}
		}
	}
}
