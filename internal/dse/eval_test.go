package dse

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
)

// TestEvaluatorSharedAcrossCallers runs overlapping grids from several
// goroutines on one evaluator: every caller gets the results a private
// sweep computes, and each distinct point is simulated exactly once however
// the callers interleave.
func TestEvaluatorSharedAcrossCallers(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	grid := spadGrid(soc.DMA, []int{1, 2, 4}, []int{1, 2})
	want, err := Sweep(context.Background(), k, grid, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ev := NewEvaluator(EvaluatorOptions{Workers: 2})
	defer ev.Close(context.Background())
	const callers = 8
	simulated := make([]int, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each caller asks for the grid rotated, so callers collide on
			// points in different orders.
			cfgs := append(append([]soc.Config{}, grid[c%len(grid):]...), grid[:c%len(grid)]...)
			outs, err := ev.Evaluate(context.Background(), "spmv-crs", k, cfgs, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for i, o := range outs {
				if o.Simulated {
					simulated[c]++
				}
				j := (i + c) % len(grid)
				if o.Res == nil || !reflect.DeepEqual(o.Res, want[j].Res) {
					t.Errorf("caller %d point %d differs from a private sweep", c, i)
				}
			}
		}(c)
	}
	wg.Wait()
	total := 0
	for _, n := range simulated {
		total += n
	}
	st := ev.Stats()
	if total != len(grid) || st.Simulated != uint64(len(grid)) {
		t.Fatalf("callers simulated %d, evaluator %d; want each of %d points once",
			total, st.Simulated, len(grid))
	}
	if st.Hits != callers*uint64(len(grid))-uint64(len(grid)) {
		t.Fatalf("hits = %d, want %d", st.Hits, callers*len(grid)-len(grid))
	}
}

// TestEvaluatorKeysByKernel pins that a shared evaluator never aliases two
// kernels: the same config under two kernel names is two points.
func TestEvaluatorKeysByKernel(t *testing.T) {
	cfg := soc.DefaultConfig()
	ev := NewEvaluator(EvaluatorOptions{Workers: 1})
	defer ev.Close(context.Background())
	var runtimes []sim.Tick
	for _, name := range []string{"spmv-crs", "fft-strided"} {
		outs, err := ev.Evaluate(context.Background(), name, kernelOf(t, name), []soc.Config{cfg}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !outs[0].Simulated {
			t.Fatalf("%s: served another kernel's point", name)
		}
		runtimes = append(runtimes, outs[0].Res.Runtime)
	}
	if runtimes[0] == runtimes[1] {
		t.Fatal("two kernels produced one result")
	}
}

// TestEvaluatorCloseEndsRetryBackoff pins the one retry loop's
// cancellation: Close ends a backoff at once instead of sleeping it out, and
// the truncated outcome — its retry budget unspent — is not persisted.
func TestEvaluatorCloseEndsRetryBackoff(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	st, err := store.Open(filepath.Join(t.TempDir(), "points"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	poison := soc.DefaultConfig()
	poison.Faults = fault.Config{Seed: 7, DMATimeout: sim.Picosecond}
	ev := NewEvaluator(EvaluatorOptions{Workers: 1, Store: st,
		Retry: RetryPolicy{Max: 3, Backoff: time.Hour, MaxBackoff: time.Hour}})
	c := ev.Submit(context.Background(), "spmv-crs", k, []soc.Config{poison})
	defer c.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ev.Close(ctx); err != nil {
		t.Fatalf("Close waited out an hour-long retry backoff: %v", err)
	}
	<-c.Done(0)
	if o := c.Outcome(0); o.Kind != soc.AbortFault || o.Attempts != 1 {
		t.Fatalf("interrupted point outcome %+v, want a fault abort after 1 attempt", o)
	}
	if st.Len() != 0 {
		t.Fatalf("an interrupted retry loop persisted %d records", st.Len())
	}
}

// TestEvictQueueBoundedRetention drives sustained cache eviction and asserts
// the FIFO order queue recycles its backing array. A pop by
// `evictOrder = evictOrder[1:]` would strand every consumed slot in front of
// the slice for the evaluator's life — capacity (and the evicted key
// strings) would grow monotonically with points served.
func TestEvictQueueBoundedRetention(t *testing.T) {
	const bound = 8
	ev := &Evaluator{opt: EvaluatorOptions{CacheEntries: bound}, cache: map[string]*entry{}}
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("k%06d", i)
		ev.cache[key] = &entry{}
		ev.finished(key)
	}
	if n := len(ev.cache); n != bound {
		t.Errorf("cache holds %d entries, want the %d-entry bound", n, bound)
	}
	if live := len(ev.evictOrder) - ev.evictHead; live != bound {
		t.Errorf("eviction queue tracks %d live keys, want %d", live, bound)
	}
	if c := cap(ev.evictOrder); c > 256 {
		t.Errorf("eviction queue retains capacity %d after sustained eviction; the consumed prefix is being stranded", c)
	}
	for i := 0; i < ev.evictHead; i++ {
		if ev.evictOrder[i] != "" {
			t.Fatalf("consumed slot %d still pins key %q", i, ev.evictOrder[i])
		}
	}
	// The newest keys must be the survivors, in order.
	for i := 0; i < bound; i++ {
		want := fmt.Sprintf("k%06d", 100000-bound+i)
		if got := ev.evictOrder[ev.evictHead+i]; got != want {
			t.Fatalf("live slot %d = %q, want %q", i, got, want)
		}
		if _, ok := ev.cache[want]; !ok {
			t.Fatalf("surviving key %q missing from the cache", want)
		}
	}
}
