package ddg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gem5aladdin/internal/trace"
)

func simpleTrace() *trace.Trace {
	b := trace.NewBuilder("simple")
	a := b.Alloc("a", trace.F64, 16, trace.In)
	o := b.Alloc("o", trace.F64, 16, trace.Out)
	for i := 0; i < 16; i++ {
		b.SetF64(a, i, float64(i))
	}
	for i := 0; i < 16; i++ {
		b.BeginIter()
		v := b.Load(a, i)
		b.Store(o, i, b.FMul(v, b.ConstF(2)))
	}
	return b.Finish()
}

func TestBuildSimple(t *testing.T) {
	g := Build(simpleTrace())
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 48 {
		t.Fatalf("nodes = %d, want 48", g.NumNodes())
	}
	if len(g.IterRange) != 16 {
		t.Fatalf("iter ranges = %d", len(g.IterRange))
	}
	for k, r := range g.IterRange {
		if r.Len() != 3 {
			t.Fatalf("iter %d has %d nodes, want 3", k, r.Len())
		}
	}
	if g.Prelude.Len() != 0 {
		t.Fatalf("prelude = %d nodes, want 0", g.Prelude.Len())
	}
	// Independent iterations: critical path is one iteration chain.
	if g.CritPath != 3 {
		t.Fatalf("critical path = %d, want 3", g.CritPath)
	}
}

func TestBasesPageAlignedAndDisjoint(t *testing.T) {
	b := trace.NewBuilder("bases")
	b.Alloc("a", trace.F64, 512, trace.In)  // exactly 4096 B
	b.Alloc("b", trace.U8, 100, trace.In)   // sub-page
	b.Alloc("c", trace.I32, 3000, trace.In) // multi-page
	g := Build(b.Finish())
	for i, base := range g.Bases {
		if base%PageSize != 0 {
			t.Fatalf("array %d base %#x not page aligned", i, base)
		}
		if base == 0 {
			t.Fatalf("array %d mapped at page 0", i)
		}
	}
	for i := range g.Bases {
		for j := i + 1; j < len(g.Bases); j++ {
			lo1, hi1 := g.ArrayRange(int16(i))
			lo2, hi2 := g.ArrayRange(int16(j))
			if lo1 < hi2 && lo2 < hi1 {
				t.Fatalf("arrays %d and %d overlap", i, j)
			}
		}
	}
}

func TestRAWDependence(t *testing.T) {
	b := trace.NewBuilder("raw")
	a := b.Alloc("a", trace.F64, 4, trace.Local)
	b.Store(a, 0, b.ConstF(1)) // node 0
	v := b.Load(a, 0)          // node 1: RAW on node 0
	_ = v
	g := Build(b.Finish())
	if g.InDeg[1] != 1 {
		t.Fatalf("load in-degree = %d, want 1", g.InDeg[1])
	}
	succ := g.Successors(0)
	if len(succ) != 1 || succ[0] != 1 {
		t.Fatalf("store successors = %v", succ)
	}
}

func TestWAWAndWARDependences(t *testing.T) {
	b := trace.NewBuilder("waw")
	a := b.Alloc("a", trace.F64, 4, trace.Local)
	b.Store(a, 2, b.ConstF(1)) // node 0
	b.Load(a, 2)               // node 1 (RAW on 0)
	b.Load(a, 2)               // node 2 (RAW on 0)
	b.Store(a, 2, b.ConstF(2)) // node 3 (WAW on 0, WAR on 1 and 2)
	g := Build(b.Finish())
	if g.InDeg[3] != 3 {
		t.Fatalf("second store in-degree = %d, want 3 (WAW + 2x WAR)", g.InDeg[3])
	}
	preds := g.Predecessors(3)
	want := map[int32]bool{0: true, 1: true, 2: true}
	for _, p := range preds {
		if !want[p] {
			t.Fatalf("unexpected predecessor %d", p)
		}
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("missing predecessors: %v", want)
	}
}

// TestBuildPanicsOnPartialElement pins Build's element rule: a memory
// node must name a whole element inside its array, or its deps would be
// recovered from the wrong element.
func TestBuildPanicsOnPartialElement(t *testing.T) {
	for _, addr := range []uint32{12, 32} {
		b := trace.NewBuilder("partial")
		a := b.Alloc("a", trace.F64, 4, trace.Local)
		b.Store(a, 1, b.ConstF(1))
		tr := b.Finish()
		tr.Nodes[len(tr.Nodes)-1].Addr = addr
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Build accepted a store to byte %d of a 32-byte F64 array", addr)
				}
			}()
			Build(tr)
		}()
	}
}

func TestDistinctAddressesIndependent(t *testing.T) {
	b := trace.NewBuilder("indep")
	a := b.Alloc("a", trace.F64, 4, trace.Local)
	b.Store(a, 0, b.ConstF(1))
	b.Store(a, 1, b.ConstF(2))
	ld := b.Load(a, 0)
	_ = ld
	g := Build(b.Finish())
	if g.InDeg[1] != 0 {
		t.Fatalf("store to different address has in-degree %d", g.InDeg[1])
	}
	if g.InDeg[2] != 1 {
		t.Fatalf("load in-degree = %d, want 1 (RAW on store 0 only)", g.InDeg[2])
	}
}

func TestRegisterAndMemoryDepDeduplicated(t *testing.T) {
	// A store whose value dep and WAR dep would both point at the same
	// load must be counted once.
	b := trace.NewBuilder("dedup")
	a := b.Alloc("a", trace.F64, 2, trace.Local)
	b.Store(a, 0, b.ConstF(1)) // node 0
	v := b.Load(a, 0)          // node 1
	b.Store(a, 0, v)           // node 2: value dep on 1 and WAR on 1, WAW on 0
	g := Build(b.Finish())
	if g.InDeg[2] != 2 {
		t.Fatalf("in-degree = %d, want 2 (load once + first store)", g.InDeg[2])
	}
}

func TestCriticalPathSerialChain(t *testing.T) {
	b := trace.NewBuilder("chain")
	acc := b.ConstF(0)
	a := b.Alloc("a", trace.F64, 32, trace.In)
	for i := 0; i < 32; i++ {
		b.BeginIter()
		acc = b.FAdd(acc, b.Load(a, i))
	}
	g := Build(b.Finish())
	// Chain of 32 dependent FAdds, each fed by an independent load:
	// longest chain = load + 32 adds.
	if g.CritPath != 33 {
		t.Fatalf("critical path = %d, want 33", g.CritPath)
	}
}

func TestNodeAddr(t *testing.T) {
	b := trace.NewBuilder("addr")
	a0 := b.Alloc("a0", trace.F64, 8, trace.In)
	a1 := b.Alloc("a1", trace.F64, 8, trace.In)
	_ = a0
	b.Load(a1, 3)
	g := Build(b.Finish())
	want := g.Bases[1] + 24
	if got := g.NodeAddr(0); got != want {
		t.Fatalf("NodeAddr = %#x, want %#x", got, want)
	}
}

func TestNodeAddrNonMemPanics(t *testing.T) {
	b := trace.NewBuilder("panic")
	b.FAdd(b.ConstF(1), b.ConstF(2))
	g := Build(b.Finish())
	defer func() {
		if recover() == nil {
			t.Fatal("NodeAddr on non-mem node did not panic")
		}
	}()
	g.NodeAddr(0)
}

func TestEmptyIterations(t *testing.T) {
	b := trace.NewBuilder("empty")
	b.BeginIter()
	b.BeginIter() // no nodes in iteration 0
	b.FAdd(b.ConstF(1), b.ConstF(2))
	g := Build(b.Finish())
	if len(g.IterRange) != 2 {
		t.Fatalf("iter ranges = %d", len(g.IterRange))
	}
	if g.IterRange[0].Len() != 0 {
		t.Fatalf("empty iteration has %d nodes", g.IterRange[0].Len())
	}
	if g.IterRange[1].Len() != 1 {
		t.Fatalf("iteration 1 has %d nodes", g.IterRange[1].Len())
	}
}

func TestPreludeRange(t *testing.T) {
	b := trace.NewBuilder("prelude")
	a := b.Alloc("a", trace.F64, 4, trace.In)
	b.Load(a, 0)
	b.Load(a, 1)
	b.BeginIter()
	b.Load(a, 2)
	g := Build(b.Finish())
	if g.Prelude.Len() != 2 {
		t.Fatalf("prelude = %d nodes, want 2", g.Prelude.Len())
	}
	if g.IterRange[0].Start != 2 || g.IterRange[0].End != 3 {
		t.Fatalf("iter 0 range = %+v", g.IterRange[0])
	}
}

// Property: for random load/store sequences, replaying the trace in any
// order consistent with the DDDG produces the same final memory image as
// sequential execution.
func TestMemoryDepsPreserveSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := trace.NewBuilder("rand")
		a := b.Alloc("a", trace.F64, 8, trace.Local)
		type op struct {
			store bool
			addr  int
			val   float64
		}
		var ops []op
		for i := 0; i < 40; i++ {
			o := op{store: rng.Intn(2) == 0, addr: rng.Intn(8), val: float64(rng.Intn(100))}
			ops = append(ops, o)
			if o.store {
				b.Store(a, o.addr, b.ConstF(o.val))
			} else {
				b.Load(a, o.addr)
			}
		}
		g := Build(b.Finish())
		if err := g.CheckInvariants(); err != nil {
			return false
		}

		// Execute in a dependence-respecting but deliberately skewed
		// order: repeatedly pick the highest-index ready node.
		n := g.NumNodes()
		indeg := make([]int32, n)
		copy(indeg, g.InDeg)
		done := make([]bool, n)
		memV := make(map[int]float64)
		loads := make(map[int]float64) // node -> observed value
		for count := 0; count < n; count++ {
			pick := -1
			for i := n - 1; i >= 0; i-- {
				if !done[i] && indeg[i] == 0 {
					pick = i
					break
				}
			}
			if pick < 0 {
				return false // cycle
			}
			done[pick] = true
			o := ops[pick]
			if o.store {
				memV[o.addr] = o.val
			} else {
				loads[pick] = memV[o.addr]
			}
			for _, s := range g.Successors(int32(pick)) {
				indeg[s]--
			}
		}
		// Sequential reference.
		ref := make(map[int]float64)
		for i, o := range ops {
			if o.store {
				ref[o.addr] = o.val
			} else if loads[i] != ref[o.addr] {
				return false
			}
		}
		for addr, v := range ref {
			if memV[addr] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
