package machsuite

import (
	"testing"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"aes-aes", "backprop-backprop", "bfs-bulk", "bfs-queue",
		"fft-strided", "fft-transpose", "gemm-blocked", "gemm-ncubed",
		"kmp-kmp", "md-grid", "md-knn", "nw-nw", "sort-merge", "sort-radix",
		"spmv-crs", "spmv-ellpack", "stencil-stencil2d", "stencil-stencil3d",
		"viterbi-viterbi",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d kernels: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestByName(t *testing.T) {
	k, err := ByName("md-knn")
	if err != nil || k.Name != "md-knn" {
		t.Fatalf("ByName md-knn: %v %v", k, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestAllKernelsFunctionallyCorrect builds every kernel; Build verifies
// results against the pure-Go references internally and reports mismatches.
func TestAllKernelsFunctionallyCorrect(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			tr, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			if tr.NumNodes() == 0 {
				t.Fatal("empty trace")
			}
			if tr.Iters == 0 {
				t.Fatal("no iteration labels")
			}
		})
	}
}

// TestAllKernelsBuildValidGraphs checks DDDG invariants for every kernel.
func TestAllKernelsBuildValidGraphs(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			tr, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			g := ddg.Build(tr)
			if err := g.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if g.CritPath <= 0 || g.CritPath > tr.NumNodes() {
				t.Fatalf("critical path %d of %d nodes", g.CritPath, tr.NumNodes())
			}
		})
	}
}

// TestBuildAllocs gates the DDDG build's allocations: a kernel's graph is
// assembled in flat buffers and its memory deps in one element table per
// array, so allocations must not grow with the number of nodes, edges or
// addresses. Every kernel takes 10 plus one per array, none of them a map.
func TestBuildAllocs(t *testing.T) {
	for _, k := range All() {
		tr, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(1, func() { ddg.Build(tr) }); a > 32 {
			t.Errorf("%s: ddg.Build allocates %.0f objects for %d nodes, want at most 32",
				k.Name, a, tr.NumNodes())
		}
	}
}

// TestTraceSizesTractable keeps kernels inside the node budget the sweeps
// were sized for.
func TestTraceSizesTractable(t *testing.T) {
	for _, k := range All() {
		tr, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		n := tr.NumNodes()
		if n < 1000 {
			t.Errorf("%s: only %d nodes — too small to exercise the system", k.Name, n)
		}
		if n > 400000 {
			t.Errorf("%s: %d nodes — will make sweeps too slow", k.Name, n)
		}
		t.Logf("%-20s %8d nodes, %6d iterations", k.Name, n, tr.Iters)
	}
}

// TestTransferDirections checks each kernel moves data both directions
// (every accelerator produces output the host reads).
func TestTransferDirections(t *testing.T) {
	for _, k := range All() {
		tr, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		in, out := tr.FootprintBytes()
		if in == 0 {
			t.Errorf("%s: no input transfer", k.Name)
		}
		if out == 0 {
			t.Errorf("%s: no output transfer", k.Name)
		}
	}
}

// TestNWKeepsMatrixLocal pins the paper's Sec IV-D example: nw's score
// matrix must be a private scratchpad array.
func TestNWKeepsMatrixLocal(t *testing.T) {
	tr := MustBuild("nw-nw")
	foundLocal := false
	for _, a := range tr.Arrays {
		if a.Name == "M" {
			foundLocal = true
			if a.Dir != trace.Local {
				t.Fatal("nw score matrix is not Local")
			}
		}
	}
	if !foundLocal {
		t.Fatal("nw has no M matrix")
	}
}

// TestMDKnnOpMix pins the paper's observation that md-knn has 12 FP
// multiplies per atom-to-atom interaction.
func TestMDKnnOpMix(t *testing.T) {
	tr := MustBuild("md-knn")
	counts := tr.OpCounts()
	interactions := mdAtoms * mdNeighbors
	perPair := float64(counts[trace.OpFMul]) / float64(interactions)
	if perPair < 11 || perPair > 13 {
		t.Fatalf("md-knn has %.1f FP multiplies per interaction, want ~12", perPair)
	}
}

// TestFFTStride pins the 512-byte stride the paper calls out.
func TestFFTStride(t *testing.T) {
	tr := MustBuild("fft-transpose")
	g := ddg.Build(tr)
	// Find the loads of iteration 0 on work_x and check consecutive
	// strides of 512 bytes.
	r := g.IterRange[0]
	var addrs []uint32
	for i := r.Start; i < r.End; i++ {
		nd := tr.Nodes[i]
		if nd.Kind == trace.OpLoad && tr.Arrays[nd.Arr].Name == "work_x" {
			addrs = append(addrs, nd.Addr)
		}
	}
	if len(addrs) != fftRadix {
		t.Fatalf("iteration 0 has %d work_x loads", len(addrs))
	}
	for i := 1; i < len(addrs); i++ {
		if addrs[i]-addrs[i-1] != 512 {
			t.Fatalf("stride %d bytes, want 512", addrs[i]-addrs[i-1])
		}
	}
}

func TestMustBuildPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild of unknown kernel did not panic")
		}
	}()
	MustBuild("does-not-exist")
}

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	// Distribution sanity for intn.
	r := newRNG(7)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("intn covered %d of 10 values", len(seen))
	}
}

func TestBuildDeterministic(t *testing.T) {
	for _, name := range []string{"gemm-ncubed", "spmv-crs", "bfs-bulk"} {
		a := MustBuild(name)
		b := MustBuild(name)
		if a.NumNodes() != b.NumNodes() || a.Iters != b.Iters {
			t.Fatalf("%s: nondeterministic trace", name)
		}
		for i := range a.Nodes {
			if a.Nodes[i] != b.Nodes[i] {
				t.Fatalf("%s: node %d differs across builds", name, i)
			}
		}
	}
}

// TestBackpropUsesExpUnits pins the sigmoid activations to the FExp
// functional unit.
func TestBackpropUsesExpUnits(t *testing.T) {
	tr := MustBuild("backprop-backprop")
	c := tr.OpCounts()
	wantExp := bpBatch * (bpHidden + bpOut)
	if c[trace.OpFExp] != wantExp {
		t.Fatalf("fexp count = %d, want %d", c[trace.OpFExp], wantExp)
	}
}

// TestSortKernelsShareInputCharacter: both sorts permute the same scale of
// data; radix is the more parallel of the two (far more iterations).
func TestSortKernelsShareInputCharacter(t *testing.T) {
	merge := MustBuild("sort-merge")
	radix := MustBuild("sort-radix")
	if radix.Iters <= merge.Iters {
		t.Fatalf("radix iters %d should exceed merge iters %d", radix.Iters, merge.Iters)
	}
}

// TestEllpackRegularVsCRS: ELLPACK has fixed-shape rows, so its iteration
// ranges are all the same length, unlike CRS.
func TestEllpackRegularVsCRS(t *testing.T) {
	ell := ddg.Build(MustBuild("spmv-ellpack"))
	first := ell.IterRange[0].Len()
	for k, r := range ell.IterRange {
		if r.Len() != first {
			t.Fatalf("ellpack iteration %d has %d nodes, want uniform %d", k, r.Len(), first)
		}
	}
	crs := ddg.Build(MustBuild("spmv-crs"))
	uniform := true
	l0 := crs.IterRange[0].Len()
	for _, r := range crs.IterRange {
		if r.Len() != l0 {
			uniform = false
			break
		}
	}
	if uniform {
		t.Fatal("CRS iterations unexpectedly uniform")
	}
}

// TestBFSQueueSerial: queue-based BFS has a much longer critical path per
// node than the bulk variant (serial pointer chasing).
func TestBFSQueueSerial(t *testing.T) {
	q := ddg.Build(MustBuild("bfs-queue"))
	if q.CritPath < 20 {
		t.Fatalf("bfs-queue critical path = %d, expected a level-deep chain", q.CritPath)
	}
}

// TestFFTStridedStageStrides: the first-stage butterflies span half the
// array (n/2 elements = 1 KB apart).
func TestFFTStridedStageStrides(t *testing.T) {
	tr := MustBuild("fft-strided")
	g := ddg.Build(tr)
	r := g.IterRange[0]
	var addrs []uint32
	for i := r.Start; i < r.End; i++ {
		nd := tr.Nodes[i]
		if nd.Kind == trace.OpLoad && tr.Arrays[nd.Arr].Name == "real" {
			addrs = append(addrs, nd.Addr)
		}
	}
	if len(addrs) != 2 {
		t.Fatalf("first butterfly has %d real loads", len(addrs))
	}
	if addrs[1]-addrs[0] != uint32(fftStridedN/2*8) {
		t.Fatalf("first-stage stride = %d bytes", addrs[1]-addrs[0])
	}
}

// TestMDGridMoreInteractionsThanKnn: the cell grid evaluates a denser
// interaction set than the 16-neighbor list at equal atom count.
func TestMDGridMoreInteractionsThanKnn(t *testing.T) {
	grid := MustBuild("md-grid")
	knn := MustBuild("md-knn")
	if grid.OpCounts()[trace.OpFMul] <= knn.OpCounts()[trace.OpFMul] {
		t.Fatal("md-grid should evaluate more pair interactions")
	}
}
