package gem5aladdin_test

import (
	"bytes"
	"fmt"
	"testing"

	gem5aladdin "gem5aladdin"
)

// buildSaxpy traces y = a*x + y over n elements.
func buildSaxpy(n int) (*gem5aladdin.Trace, []float64) {
	b := gem5aladdin.NewKernel("saxpy")
	x := b.Alloc("x", gem5aladdin.F64, n, gem5aladdin.In)
	y := b.Alloc("y", gem5aladdin.F64, n, gem5aladdin.InOut)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		b.SetF64(x, i, float64(i))
		b.SetF64(y, i, 1)
		want[i] = 2*float64(i) + 1
	}
	a := b.ConstF(2)
	for i := 0; i < n; i++ {
		b.BeginIter()
		b.Store(y, i, b.FAdd(b.FMul(a, b.Load(x, i)), b.Load(y, i)))
	}
	tr := b.Finish()
	for i := 0; i < n; i++ {
		if got := b.GetF64(y, i); got != want[i] {
			panic(fmt.Sprintf("saxpy[%d] = %v, want %v", i, got, want[i]))
		}
	}
	return tr, want
}

func TestPublicAPIRun(t *testing.T) {
	tr, _ := buildSaxpy(256)
	for _, mem := range []gem5aladdin.MemKind{gem5aladdin.Isolated, gem5aladdin.DMA, gem5aladdin.Cache} {
		cfg := gem5aladdin.DefaultConfig()
		cfg.Mem = mem
		res, err := gem5aladdin.RunTrace(tr, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mem, err)
		}
		if res.Runtime == 0 || res.EDPJs <= 0 {
			t.Fatalf("%v: empty result", mem)
		}
	}
}

func TestPublicAPIGraphReuse(t *testing.T) {
	tr, _ := buildSaxpy(128)
	g := gem5aladdin.BuildGraph(tr)
	cfg := gem5aladdin.DefaultConfig()
	a, err := gem5aladdin.Run(gem5aladdin.Compile(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gem5aladdin.Run(gem5aladdin.Compile(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime {
		t.Fatal("graph reuse nondeterministic")
	}
}

func TestPublicAPIBenchmarks(t *testing.T) {
	names := gem5aladdin.Benchmarks()
	if len(names) != 19 {
		t.Fatalf("benchmarks = %v", names)
	}
	tr, err := gem5aladdin.BuildBenchmark("kmp-kmp")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() == 0 {
		t.Fatal("empty benchmark trace")
	}
	if _, err := gem5aladdin.BuildBenchmark("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// Example demonstrates the quickstart flow: trace a kernel, simulate it
// under DMA, and inspect the movement/compute split.
func Example() {
	b := gem5aladdin.NewKernel("scale")
	x := b.Alloc("x", gem5aladdin.F64, 64, gem5aladdin.In)
	y := b.Alloc("y", gem5aladdin.F64, 64, gem5aladdin.Out)
	for i := 0; i < 64; i++ {
		b.SetF64(x, i, float64(i))
	}
	two := b.ConstF(2)
	for i := 0; i < 64; i++ {
		b.BeginIter()
		b.Store(y, i, b.FMul(two, b.Load(x, i)))
	}
	res, err := gem5aladdin.RunTrace(b.Finish(), gem5aladdin.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Runtime > 0, res.Breakdown.Total() == res.Runtime)
	// Output: true true
}

func TestPublicAPIRunRepeated(t *testing.T) {
	tr, _ := buildSaxpy(256)
	k := gem5aladdin.Compile(gem5aladdin.BuildGraph(tr))
	cfg := gem5aladdin.DefaultConfig()
	cfg.Mem = gem5aladdin.Cache
	rr, err := gem5aladdin.Invoke(gem5aladdin.Invocation{Kernels: []*gem5aladdin.Kernel{k},
		Configs: []gem5aladdin.Config{cfg}, Rounds: 3, ReuseInputs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Rounds) != 3 || rr.Makespan == 0 {
		t.Fatalf("repeat result: %+v", rr.Rounds)
	}
	if rr.Rounds[2] > rr.Rounds[0] {
		t.Fatal("steady state slower than cold round with reused inputs")
	}
}

func TestPublicAPIRunMulti(t *testing.T) {
	tr, _ := buildSaxpy(128)
	k := gem5aladdin.Compile(gem5aladdin.BuildGraph(tr))
	cfg := gem5aladdin.DefaultConfig()
	multi, err := gem5aladdin.Invoke(gem5aladdin.Invocation{Kernels: []*gem5aladdin.Kernel{k, k},
		Configs: []gem5aladdin.Config{cfg, cfg}, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Results) != 2 || multi.Makespan == 0 {
		t.Fatal("multi result incomplete")
	}
}

// TestRunTraceConvenience runs a one-iteration trace straight through
// RunTrace.
func TestRunTraceConvenience(t *testing.T) {
	b := gem5aladdin.NewKernel("tiny")
	a := b.Alloc("a", gem5aladdin.F64, 8, gem5aladdin.InOut)
	b.BeginIter()
	b.Store(a, 0, b.FAdd(b.Load(a, 0), b.ConstF(1)))
	r, err := gem5aladdin.RunTrace(b.Finish(), gem5aladdin.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Runtime == 0 {
		t.Fatal("no runtime")
	}
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	tr, _ := buildSaxpy(64)
	var buf bytes.Buffer
	if err := gem5aladdin.SaveTrace(tr, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := gem5aladdin.LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != tr.NumNodes() {
		t.Fatal("trace round trip lost nodes")
	}
	// The loaded trace simulates identically.
	a, err := gem5aladdin.RunTrace(tr, gem5aladdin.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := gem5aladdin.RunTrace(got, gem5aladdin.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime {
		t.Fatalf("loaded trace runs differently: %v vs %v", a.Runtime, b.Runtime)
	}
}

func TestPublicAPIReassociate(t *testing.T) {
	// A saxpy has no >=3 chains; build a dot product instead.
	b := gem5aladdin.NewKernel("dot")
	x := b.Alloc("x", gem5aladdin.F64, 64, gem5aladdin.In)
	o := b.Alloc("o", gem5aladdin.F64, 1, gem5aladdin.Out)
	for i := 0; i < 64; i++ {
		b.SetF64(x, i, 1)
	}
	b.BeginIter()
	acc := b.ConstF(0)
	for i := 0; i < 64; i++ {
		acc = b.FAdd(acc, b.Load(x, i))
	}
	b.Store(o, 0, acc)
	tr := b.Finish()
	g0 := gem5aladdin.BuildGraph(tr)
	critBefore := g0.CritPath
	if n := gem5aladdin.ReassociateReductions(tr); n != 1 {
		t.Fatalf("chains = %d", n)
	}
	g1 := gem5aladdin.BuildGraph(tr)
	if g1.CritPath >= critBefore {
		t.Fatalf("critical path %d -> %d; expected reduction", critBefore, g1.CritPath)
	}
}
