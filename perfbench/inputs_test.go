package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"gem5aladdin/internal/machsuite"
)

// testPasses is how many serve passes the input tests draw: three times
// the ten or so a 30-second run makes.
const testPasses = 30

// generated encodes every input one seed produces: the grid input, the
// search seeds, and the serve warm-up and testPasses passes.
func generated(t *testing.T, seed uint64) []byte {
	t.Helper()
	tr := newServeTraffic(seed)
	ops := tr.warmup()
	for p := 0; p < testPasses; p++ {
		ops = append(ops, passOps(tr.pass())...)
	}
	b, err := json.Marshal(struct {
		Grid   gridInput
		Search searchInput
		Serve  []serveOp
	}{makeGridInput(seed, machsuite.Names()), makeSearchInput(seed), ops})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// passOps returns a pass's operations in order, new grids first.
func passOps(p servePass) []serveOp {
	return append(append([]serveOp(nil), p.New...), p.Repeats...)
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := generated(t, 7), generated(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed generated two different inputs")
	}
}

func TestOtherSeedSameStrata(t *testing.T) {
	if bytes.Equal(generated(t, 7), generated(t, 8)) {
		t.Fatal("two seeds generated the same inputs")
	}
	for _, seed := range []uint64{7, 8} {
		in := makeGridInput(seed, machsuite.Names())
		count := map[int]int{}
		lanes := map[int]map[int]bool{}
		for _, pts := range in.Sweeps {
			for _, p := range pts {
				count[p.Stratum]++
				if lanes[p.Stratum] == nil {
					lanes[p.Stratum] = map[int]bool{}
				}
				lanes[p.Stratum][p.Idx[0]] = true // axis 0 is lanes
			}
		}
		if len(count) != len(in.Strata) || len(in.Check) != len(in.Strata) {
			t.Fatalf("seed %d: %d strata drawn, %d checked, want %d", seed, len(count), len(in.Check), len(in.Strata))
		}
		for si, n := range count {
			if n != gridPerStratum || len(lanes[si]) != gridPerStratum {
				t.Errorf("seed %d: stratum %v has %d points over %d lane counts, want %d over %d",
					seed, in.Strata[si], n, len(lanes[si]), gridPerStratum, gridPerStratum)
			}
		}

		tr := newServeTraffic(seed)
		tr.warmup()
		groups := len(tr.strata) / len(fabrics)
		covered := map[int]int{}
		for p := 0; p < testPasses; p++ {
			perGroup := map[int]int{}
			kinds := map[string]int{}
			for _, op := range passOps(tr.pass()) {
				switch {
				case op.New:
					perGroup[op.Stratum/len(fabrics)]++
					if p < len(fabrics) {
						covered[op.Stratum]++
					}
				case op.Job:
					kinds["job"]++
				default:
					kinds["repeat"]++
				}
			}
			if len(perGroup) != groups || kinds["job"] != serveJobsPerPass || kinds["job"]+kinds["repeat"] != serveRepeats*groups {
				t.Fatalf("seed %d pass %d: new grids over %d of %d groups, %v", seed, p, len(perGroup), groups, kinds)
			}
			for g, n := range perGroup {
				if n != 1 {
					t.Fatalf("seed %d pass %d: %v got %d new grids", seed, p, tr.strata[g*len(fabrics)], n)
				}
			}
		}
		for si := range tr.strata {
			if covered[si] != 1 {
				t.Errorf("seed %d: the first %d passes bring %d new grids for %v, want 1", seed, len(fabrics), covered[si], tr.strata[si])
			}
		}
	}
}

// TestPassGridsAreNew draws three times the passes of a 30-second run and
// demands that every new grid is new to its pass's fresh server, that the
// new grids walk the (kernel, memory system) pairs in their fixed order,
// that every grid has the cmd/dse QuickAxes shape (9 points on DMA, 18 on
// the cache), and that the repeat phase holds only repeats of the pass's
// new grids.
func TestPassGridsAreNew(t *testing.T) {
	tr := newServeTraffic(3)
	warmKeys := map[string]bool{}
	for _, op := range tr.warmup() {
		cfgs, err := op.Req.Configs()
		if err != nil || len(cfgs) != 1 {
			t.Fatalf("warm-up %v: %d points, %v", op.Req, len(cfgs), err)
		}
		warmKeys[op.Req.Kernel+string(cfgs[0].AppendCanonical(nil))] = true
	}
	for p := 0; p < testPasses; p++ {
		seen := map[string]bool{}
		issued := map[string]bool{}
		for k := range warmKeys {
			seen[k] = true
		}
		pass := tr.pass()
		for g, op := range pass.New {
			if !op.New || op.Job || op.Stratum/len(fabrics) != g {
				t.Fatalf("pass %d: new-grid phase holds %+v at position %d", p, op, g)
			}
			req, err := json.Marshal(op.Req)
			if err != nil {
				t.Fatal(err)
			}
			issued[string(req)] = true
			cfgs, err := op.Req.Configs()
			if err != nil {
				t.Fatal(err)
			}
			if want := map[string]int{"dma": 9, "cache": 18}[op.Req.Mem]; len(cfgs) != want {
				t.Fatalf("pass %d: %s grid has %d points, want %d", p, op.Req.Mem, len(cfgs), want)
			}
			for _, c := range cfgs {
				key := op.Req.Kernel + string(c.AppendCanonical(nil))
				if seen[key] {
					t.Fatalf("pass %d: new grid for %v repeats a point", p, tr.strata[op.Stratum])
				}
				seen[key] = true
			}
		}
		for _, op := range pass.Repeats {
			req, err := json.Marshal(op.Req)
			if err != nil {
				t.Fatal(err)
			}
			if op.New || !issued[string(req)] {
				t.Fatalf("pass %d: repeat phase holds %+v, not a repeat of a new grid of the pass", p, op)
			}
		}
	}
}

func TestPercentileCounts(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct {
		q      float64
		value  float64
		beyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{1, 1000, 0},
	} {
		got := percentile(xs, c.q)
		if got.Value != c.value || got.N != 1000 || got.Beyond != c.beyond {
			t.Errorf("percentile(%v) = %+v, want value %v, N 1000, beyond %d", c.q, got, c.value, c.beyond)
		}
	}
	if got := percentile(xs[:50], 0.99); got.N != 50 || got.Beyond != 0 {
		t.Errorf("p99 of 50 samples = %+v, want N 50 and nothing beyond", got)
	}
	if got := percentile(nil, 0.5); got != (quantile{}) {
		t.Errorf("percentile of no samples = %+v, want zero", got)
	}
}

func TestLatencyWindows(t *testing.T) {
	xs := make([]float64, 250)
	var sizes []int
	for _, w := range latencyWindows(xs, 100) {
		sizes = append(sizes, len(w))
	}
	if len(sizes) != 2 || sizes[0] != 100 || sizes[1] != 150 {
		t.Errorf("250 samples in windows of 100 = %v, want [100 150]", sizes)
	}
	if ws := latencyWindows(xs[:40], 100); len(ws) != 1 || len(ws[0]) != 40 {
		t.Errorf("a run shorter than one window gave %d windows", len(ws))
	}
}
