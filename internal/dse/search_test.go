package dse

import (
	"context"
	"math"
	"reflect"
	"testing"

	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
)

// searchTestSpace is a small, fully-enumerable DMA space (900 points) used
// across the search tests: large enough for an interesting front, small
// enough to sweep exhaustively as the reference.
func searchTestSpace() SearchSpace {
	base := soc.DefaultConfig()
	base.Mem = soc.DMA
	return SearchSpace{
		Base: base,
		Axes: []SearchAxis{
			{Name: "lanes", Values: []int{1, 2, 4, 8, 16}},
			{Name: "partitions", Values: []int{1, 2, 4, 8, 16}},
			{Name: "spad_ports", Values: []int{1, 2, 4}},
			{Name: "pipelined_dma", Values: []int{0, 1}},
			{Name: "dma_triggered", Values: []int{0, 1}},
			{Name: "dma_chunk", Values: []int{1024, 4096, 16384}},
		},
	}
}

func TestSearchSpaceCodec(t *testing.T) {
	sp := searchTestSpace()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Size() != 900 {
		t.Fatalf("size = %d, want 900", sp.Size())
	}
	// Rank/Unrank are inverse bijections over the whole cross product.
	for r := uint64(0); r < sp.Size(); r++ {
		idx := sp.Unrank(r)
		if got := sp.Rank(idx); got != r {
			t.Fatalf("Rank(Unrank(%d)) = %d", r, got)
		}
	}
	// The codec reaches distinct configs: spot-check two neighbors.
	if reflect.DeepEqual(sp.Config(sp.Unrank(0)), sp.Config(sp.Unrank(1))) {
		t.Fatal("adjacent ranks produced identical configs")
	}

	bad := SearchSpace{Base: soc.DefaultConfig(),
		Axes: []SearchAxis{{Name: "warp_drive", Values: []int{1}}}}
	if bad.Validate() == nil {
		t.Fatal("unknown axis accepted")
	}
	empty := SearchSpace{Base: soc.DefaultConfig(),
		Axes: []SearchAxis{{Name: "lanes"}}}
	if empty.Validate() == nil {
		t.Fatal("empty axis accepted")
	}
	if (SearchSpace{}).Validate() == nil {
		t.Fatal("axis-free space accepted")
	}

	// Fingerprint separates every ingredient of the search problem.
	fp := sp.Fingerprint("spmv-crs", 1)
	if sp.Fingerprint("spmv-crs", 2) == fp {
		t.Fatal("fingerprint ignores seed")
	}
	if sp.Fingerprint("fft-transpose", 1) == fp {
		t.Fatal("fingerprint ignores kernel")
	}
	other := searchTestSpace()
	other.Axes[0].Values = []int{1, 2, 4}
	if other.Fingerprint("spmv-crs", 1) == fp {
		t.Fatal("fingerprint ignores axis values")
	}
	other2 := searchTestSpace()
	other2.Base.BusWidthBits = 64
	if other2.Fingerprint("spmv-crs", 1) == fp {
		t.Fatal("fingerprint ignores base config")
	}
}

// TestSearchSpaceValidate is the table of malformed spaces Validate must
// reject before anything sizes, ranks or samples them. Repeated axis names
// and cross products beyond a uint64 used to pass, and a product that
// wrapped to zero made sampling divide by zero.
func TestSearchSpaceValidate(t *testing.T) {
	axis := func(name string, n int) SearchAxis {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = i + 1
		}
		return SearchAxis{Name: name, Values: vals}
	}
	repeat := func(a SearchAxis, n int) []SearchAxis {
		out := make([]SearchAxis, n)
		for i := range out {
			out[i] = a
		}
		return out
	}
	wide := []SearchAxis{axis("lanes", 1<<16), axis("partitions", 1<<16),
		axis("spad_ports", 1<<16), axis("mshrs", 1<<16)}
	for _, tc := range []struct {
		name string
		axes []SearchAxis
		ok   bool
	}{
		{"valid", searchTestSpace().Axes, true},
		{"no axes", nil, false},
		{"unknown axis", []SearchAxis{axis("warp_drive", 2)}, false},
		{"empty axis", []SearchAxis{axis("lanes", 0)}, false},
		{"repeated axis", []SearchAxis{axis("lanes", 2), axis("partitions", 2), axis("lanes", 3)}, false},
		{"64 repeated binary axes (product wraps to 0)", repeat(axis("lanes", 2), 64), false},
		{"2^64 points over distinct axes", wide, false},
		{"2^48 points fit", wide[:3], true},
	} {
		err := SearchSpace{Base: soc.DefaultConfig(), Axes: tc.axes}.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestGridAllocs gates the grid walk: over the full Fig 3 cache grid crossed
// with every fabric (2,160 points) it allocates its result and its odometer
// and nothing per point. Setting an axis through an indirect call would move
// each point's config to the heap.
func TestGridAllocs(t *testing.T) {
	base := soc.DefaultConfig()
	base.Mem = soc.Cache
	sp := GridSpace(base, true, soc.FabricKinds())
	if n := len(sp.Grid()); n != 2160 {
		t.Fatalf("grid has %d points, want 2160", n)
	}
	if a := testing.AllocsPerRun(10, func() { sp.Grid() }); a > 2 {
		t.Errorf("Grid allocates %.0f times, want <= 2", a)
	}
}

// TestSearchDeterministic pins the determinism contract: the same seed over
// the same space yields a bit-identical evaluation sequence and final front,
// regardless of worker count.
func TestSearchDeterministic(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	sp := searchTestSpace()
	opts := SearchOptions{Seed: 7, Budget: 48, InitSamples: 24, RoundSize: 12}

	a, err := Search(context.Background(), k, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1 // same seed, serial pool
	b, err := Search(context.Background(), k, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatal("evaluation sequence differs across runs with the same seed")
	}
	if !reflect.DeepEqual(a.Front, b.Front) {
		t.Fatal("final front differs across runs with the same seed")
	}
	if a.Evaluated != 48 || a.Evaluated != len(a.Points) {
		t.Fatalf("evaluated = %d (points %d), want the full budget 48",
			a.Evaluated, len(a.Points))
	}
	if a.Simulated != a.Evaluated {
		t.Fatalf("cacheless search reported %d simulated of %d evaluated",
			a.Simulated, a.Evaluated)
	}

	// A different seed explores a different sequence (sanity that the seed
	// is actually wired in).
	opts.Workers = 0
	opts.Seed = 8
	c, err := Search(context.Background(), k, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Points, c.Points) {
		t.Fatal("different seeds produced identical evaluation sequences")
	}
}

// TestSearchDedupe forces mutation collisions: a 12-point space searched
// with a 60-point budget and oversized rounds must evaluate each PointKey at
// most once and stop when the space is exhausted, not when the budget is.
func TestSearchDedupe(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	base := soc.DefaultConfig()
	base.Mem = soc.DMA
	sp := SearchSpace{Base: base, Axes: []SearchAxis{
		{Name: "lanes", Values: []int{1, 2, 4, 8}},
		{Name: "partitions", Values: []int{1, 4, 16}},
	}}
	res, err := Search(context.Background(), k, sp, SearchOptions{
		Seed: 3, Budget: 60, InitSamples: 8, RoundSize: 32, Patience: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated > int(sp.Size()) {
		t.Fatalf("evaluated %d points in a %d-point space", res.Evaluated, sp.Size())
	}
	if !res.Converged {
		t.Fatal("exhausted space not reported as converged")
	}
	seen := map[string]bool{}
	for _, p := range res.Points {
		key := PointKey("", sp.Config(p.Idx))
		if seen[key] {
			t.Fatalf("point %v evaluated twice", p.Idx)
		}
		seen[key] = true
	}
	// With budget > space size and unbounded patience, dedup is the only
	// thing stopping re-simulation: the whole space must be covered.
	if res.Evaluated != int(sp.Size()) {
		t.Fatalf("evaluated %d of %d reachable points", res.Evaluated, sp.Size())
	}
}

// TestSearchResume kills a search mid-run (context cancellation after two
// checkpointed rounds) and verifies the rerun against the same store resumes
// to the bit-identical front an uninterrupted run produces, replaying the
// completed rounds' progress and re-simulating almost nothing.
func TestSearchResume(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	sp := searchTestSpace()
	opts := SearchOptions{Seed: 11, Budget: 48, InitSamples: 16, RoundSize: 8}

	// Uninterrupted reference, no store: the determinism contract says
	// store contents must not change the outcome.
	var refProgress []SearchProgress
	refOpts := opts
	refOpts.Progress = func(p SearchProgress) { refProgress = append(refProgress, p) }
	ref, err := Search(context.Background(), k, sp, refOpts)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the second completed round.
	cache := testStoreCache(t, "spmv-crs")
	ctx, cancel := context.WithCancel(context.Background())
	intOpts := opts
	intOpts.Cache = cache
	intOpts.CheckpointKey = "search/test"
	rounds := 0
	intOpts.Progress = func(p SearchProgress) {
		if rounds++; rounds == 2 {
			cancel()
		}
	}
	if _, err := Search(ctx, k, sp, intOpts); err == nil {
		t.Fatal("cancelled search returned no error")
	}
	cancel()

	// Resume under the same store and checkpoint key.
	var resProgress []SearchProgress
	resOpts := opts
	resOpts.Cache = cache
	resOpts.CheckpointKey = "search/test"
	resOpts.Progress = func(p SearchProgress) { resProgress = append(resProgress, p) }
	res, err := Search(context.Background(), k, sp, resOpts)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(res.Points, ref.Points) {
		t.Fatal("resumed evaluation sequence differs from the uninterrupted run")
	}
	if len(res.Front) != len(ref.Front) {
		t.Fatalf("resumed front has %d points, reference %d", len(res.Front), len(ref.Front))
	}
	for i := range res.Front {
		if !reflect.DeepEqual(res.Front[i].Cfg, ref.Front[i].Cfg) ||
			res.Front[i].Res.Runtime != ref.Front[i].Res.Runtime ||
			res.Front[i].Res.AvgPowerW != ref.Front[i].Res.AvgPowerW {
			t.Fatalf("resumed front point %d differs from reference", i)
		}
	}
	// The first two rounds replay from the checkpoint; the rest run live.
	if len(resProgress) != len(refProgress) {
		t.Fatalf("resumed progress has %d rounds, reference %d",
			len(resProgress), len(refProgress))
	}
	if !resProgress[0].Replayed || !resProgress[1].Replayed {
		t.Fatal("checkpointed rounds not marked replayed")
	}
	for i := range resProgress {
		if resProgress[i].Round != refProgress[i].Round ||
			resProgress[i].Evaluated != refProgress[i].Evaluated ||
			resProgress[i].FrontSize != refProgress[i].FrontSize ||
			!reflect.DeepEqual(resProgress[i].Front, refProgress[i].Front) {
			t.Fatalf("progress round %d diverges between resumed and reference", i)
		}
	}
	// Everything the interrupted run evaluated replays from the store.
	if res.Simulated >= res.Evaluated {
		t.Fatalf("resume re-simulated everything: %d of %d", res.Simulated, res.Evaluated)
	}

	// Rerunning the finished search is a pure replay: same front, nothing
	// simulated, converged state restored from the checkpoint.
	again, err := Search(context.Background(), k, sp, resOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Points, ref.Points) || again.Simulated != 0 {
		t.Fatalf("finished-search replay simulated %d points", again.Simulated)
	}

	// A checkpoint in the schema-1 JSON format the search wrote before is a
	// fresh start, not an error: no round is restored, and the search walks
	// the same sequence again with every point a store hit.
	fp := sp.Fingerprint("spmv-crs", opts.Seed)
	data, ok, err := cache.Store.Get("search/test")
	if err != nil || !ok {
		t.Fatalf("no checkpoint stored: ok=%v err=%v", ok, err)
	}
	st := decodeSearchState(data, sp, fp)
	if st == nil {
		t.Fatal("finished search's checkpoint does not decode")
	}
	if err := cache.Store.Put("search/test", jsonCheckpoint(t, fp, st)); err != nil {
		t.Fatal(err)
	}
	jsonOpts := resOpts
	jsonOpts.Progress = func(p SearchProgress) {
		if p.Replayed {
			t.Errorf("round %d restored from a schema-1 checkpoint", p.Round)
		}
	}
	fresh, err := Search(context.Background(), k, sp, jsonOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Points, ref.Points) || fresh.Simulated != 0 {
		t.Fatalf("search over a schema-1 checkpoint simulated %d points", fresh.Simulated)
	}
	if len(fresh.Front) != len(ref.Front) {
		t.Fatalf("search over a schema-1 checkpoint found %d front points, reference %d",
			len(fresh.Front), len(ref.Front))
	}
	for i := range fresh.Front {
		if !reflect.DeepEqual(fresh.Front[i].Cfg, ref.Front[i].Cfg) ||
			fresh.Front[i].Res.Runtime != ref.Front[i].Res.Runtime ||
			fresh.Front[i].Res.AvgPowerW != ref.Front[i].Res.AvgPowerW {
			t.Fatalf("front point %d over a schema-1 checkpoint differs from reference", i)
		}
	}

	// A checkpoint from a different seed must not be trusted: the
	// fingerprint mismatch forces a fresh start.
	otherOpts := resOpts
	otherOpts.Seed = 12
	otherOpts.Progress = nil
	other, err := Search(context.Background(), k, sp, otherOpts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other.Points, ref.Points) {
		t.Fatal("mismatched-fingerprint checkpoint was reused")
	}
}

// TestSearchHypervolumeEpsilon is the headline time-to-front gate: on the
// fully-enumerable 900-point space, the search must recover a front within
// a fixed hypervolume epsilon of the exhaustive front while evaluating at
// least 10x fewer design points.
func TestSearchHypervolumeEpsilon(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	sp := searchTestSpace()

	// Exhaustive reference front over the whole cross product.
	cfgs := make([]soc.Config, 0, sp.Size())
	for r := uint64(0); r < sp.Size(); r++ {
		cfg := sp.Config(sp.Unrank(r))
		if cfg.Validate() != nil {
			continue
		}
		cfgs = append(cfgs, cfg)
	}
	grid, err := Sweep(context.Background(), k, cfgs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Reference point: just beyond the worst evaluated design, so every
	// point contributes and the epsilon is measured over the whole span.
	refS, refW := 0.0, 0.0
	for _, p := range grid {
		refS = math.Max(refS, p.Res.Seconds())
		refW = math.Max(refW, p.Res.AvgPowerW)
	}
	refS *= 1.01
	refW *= 1.01
	hvGrid := grid.Hypervolume(refS, refW)
	if hvGrid <= 0 {
		t.Fatal("degenerate exhaustive hypervolume")
	}

	res, err := Search(context.Background(), k, sp, SearchOptions{
		Seed: 1, Budget: 90, InitSamples: 24, RoundSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated*10 > len(cfgs) {
		t.Fatalf("search evaluated %d points; 10x target allows %d",
			res.Evaluated, len(cfgs)/10)
	}
	hvSearch := res.Front.Hypervolume(refS, refW)
	const epsilon = 0.02
	if hvSearch < (1-epsilon)*hvGrid {
		t.Fatalf("search hypervolume %.6g below (1-%.2g) of exhaustive %.6g (ratio %.4f)",
			hvSearch, epsilon, hvGrid, hvSearch/hvGrid)
	}
	t.Logf("hypervolume ratio %.4f with %d/%d points simulated (%.1fx fewer)",
		hvSearch/hvGrid, res.Evaluated, len(cfgs), float64(len(cfgs))/float64(res.Evaluated))
}

// TestHypervolume pins the 2D hypervolume computation on hand-built fronts.
func TestHypervolume(t *testing.T) {
	pt := func(seconds, watts float64) Point {
		return Point{Res: &soc.RunResult{
			Runtime:   sim.Tick(seconds * 1e12),
			AvgPowerW: watts,
		}}
	}
	// Two-point staircase against ref (10s, 10W):
	// (2s, 4W) contributes (10-2)*(10-4) = 48; (6s, 1W) adds (10-6)*(4-1) = 12.
	s := Space{pt(2, 4), pt(6, 1)}
	if hv := s.Hypervolume(10, 10); math.Abs(hv-60) > 1e-12 {
		t.Fatalf("hv = %v, want 60", hv)
	}
	// Dominated points change nothing.
	s2 := append(Space{pt(7, 8), pt(3, 5)}, s...)
	if hv := s2.Hypervolume(10, 10); math.Abs(hv-60) > 1e-12 {
		t.Fatalf("hv with dominated points = %v, want 60", hv)
	}
	// Points at or beyond the reference contribute nothing.
	s3 := append(Space{pt(12, 0.5), pt(2, 11)}, s...)
	if hv := s3.Hypervolume(10, 10); math.Abs(hv-60) > 1e-12 {
		t.Fatalf("hv with out-of-reference points = %v, want 60", hv)
	}
	if hv := (Space{}).Hypervolume(10, 10); hv != 0 {
		t.Fatalf("empty-space hv = %v", hv)
	}
}
