package dse

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
)

// paretoFrontNaive is the O(n^2) reference implementation: a point is kept
// unless some other point is no worse on both axes and strictly better on
// at least one. Exact (runtime, power) duplicates never dominate each
// other, so both survive — the sweep implementation must agree.
func paretoFrontNaive(s Space) Space {
	var front Space
	for _, p := range s {
		dominated := false
		for _, q := range s {
			if q.Res.Runtime <= p.Res.Runtime && q.Res.AvgPowerW <= p.Res.AvgPowerW &&
				(q.Res.Runtime < p.Res.Runtime || q.Res.AvgPowerW < p.Res.AvgPowerW) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].Res.Runtime < front[j].Res.Runtime })
	return front
}

type rtPow struct {
	rt sim.Tick
	pw float64
}

func frontKey(s Space) []rtPow {
	keys := make([]rtPow, len(s))
	for i, p := range s {
		keys[i] = rtPow{p.Res.Runtime, p.Res.AvgPowerW}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rt != keys[j].rt {
			return keys[i].rt < keys[j].rt
		}
		return keys[i].pw < keys[j].pw
	})
	return keys
}

// TestParetoFrontMatchesNaive cross-checks the O(n log n) sweep against
// the quadratic reference on random spaces with heavy tie and duplicate
// pressure (few distinct values force equal-runtime and equal-power
// columns, the cases a sweep implementation gets wrong).
func TestParetoFrontMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		distinct := 1 + rng.Intn(6)
		space := make(Space, n)
		for i := range space {
			space[i] = Point{Res: &soc.RunResult{
				Runtime:   sim.Tick(1 + rng.Intn(distinct)),
				AvgPowerW: float64(1 + rng.Intn(distinct)),
			}}
		}
		got, want := space.ParetoFront(), paretoFrontNaive(space)
		if len(got) != len(want) {
			t.Fatalf("trial %d: front size %d, reference %d", trial, len(got), len(want))
		}
		gk, wk := frontKey(got), frontKey(want)
		for i := range gk {
			if gk[i] != wk[i] {
				t.Fatalf("trial %d: front mismatch at %d: got %+v, want %+v", trial, i, gk[i], wk[i])
			}
		}
		// The sweep's output contract: sorted by runtime.
		for i := 1; i < len(got); i++ {
			if got[i].Res.Runtime < got[i-1].Res.Runtime {
				t.Fatalf("trial %d: front not sorted by runtime", trial)
			}
		}
	}
}

// TestParetoFrontDuplicatesSurvive pins the duplicate rule explicitly.
func TestParetoFrontDuplicatesSurvive(t *testing.T) {
	dup := &soc.RunResult{Runtime: 10, AvgPowerW: 1}
	space := Space{
		{Res: &soc.RunResult{Runtime: 10, AvgPowerW: 1}},
		{Res: dup},
		{Res: &soc.RunResult{Runtime: 20, AvgPowerW: 2}}, // dominated
		{Res: &soc.RunResult{Runtime: 5, AvgPowerW: 3}},  // frontier: faster, hungrier
	}
	front := space.ParetoFront()
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3 (both duplicates + the fast point)", len(front))
	}
}

// TestSweepWorkerCountInvariant requires the same results — same order,
// same values — regardless of pool size, and a monotone progress stream
// that ends at the full count.
func TestSweepWorkerCountInvariant(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	cfgs := spadGrid(soc.DMA, []int{1, 4}, []int{1, 4, 16})
	serial, err := Sweep(context.Background(), k, cfgs, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		var mu sync.Mutex
		var seen []int
		parallel, err := Sweep(context.Background(), k, cfgs, SweepOptions{Workers: workers, Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != len(cfgs) {
				t.Errorf("progress total = %d, want %d", total, len(cfgs))
			}
			seen = append(seen, done)
		}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d points, serial %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if serial[i].Cfg != parallel[i].Cfg ||
				serial[i].Res.Runtime != parallel[i].Res.Runtime ||
				serial[i].Res.EDPJs != parallel[i].Res.EDPJs ||
				serial[i].Res.Energy != parallel[i].Res.Energy {
				t.Fatalf("workers=%d: point %d diverged from serial sweep", workers, i)
			}
		}
		if len(seen) != len(cfgs) || seen[len(seen)-1] != len(cfgs) {
			t.Fatalf("workers=%d: progress stream %v, want %d monotone reports", workers, seen, len(cfgs))
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] != seen[i-1]+1 {
				t.Fatalf("workers=%d: progress stream not monotone: %v", workers, seen)
			}
		}
	}
}
