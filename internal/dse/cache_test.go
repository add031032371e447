package dse

import (
	"context"
	"reflect"
	"testing"
	"time"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
)

func testStoreCache(t *testing.T, kernel string) *StoreCache {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return &StoreCache{Kernel: kernel, Store: st}
}

// TestCachedPointRoundTrip pins the durable point encoding: a real
// simulation result must survive encode/decode bit-identically — the
// property the kill-and-restart resume test leans on — and encoding must
// not mutate the caller's result even when an observer is attached.
func TestCachedPointRoundTrip(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	cfg := soc.DefaultConfig()
	cfg.Mem = soc.DMA
	res, err := soc.Run(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Config.Obs = obs.New(false) // live observer must be stripped, not stored

	data, err := EncodePoint(&CachedPoint{Result: res})
	if err != nil {
		t.Fatalf("EncodePoint: %v", err)
	}
	if res.Config.Obs == nil {
		t.Fatal("EncodePoint mutated the caller's result")
	}
	cp, ok, err := DecodePoint(data)
	if err != nil || !ok {
		t.Fatalf("DecodePoint: ok=%v err=%v", ok, err)
	}
	want := *res
	want.Config.Obs = nil
	if !reflect.DeepEqual(cp.Result, &want) {
		t.Fatal("decoded result differs from the simulated one")
	}

	// Failure records round-trip too.
	fdata, err := EncodePoint(&CachedPoint{Aborted: true, Kind: soc.AbortStall,
		Err: "soc: run aborted: stall", Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	fcp, ok, err := DecodePoint(fdata)
	if err != nil || !ok {
		t.Fatalf("decode failure record: ok=%v err=%v", ok, err)
	}
	if !fcp.Aborted || fcp.Kind != soc.AbortStall || fcp.Attempts != 3 {
		t.Fatalf("failure record mangled: %+v", fcp)
	}
}

func TestDecodePointRejectsForeignSchema(t *testing.T) {
	if _, ok, err := DecodePoint([]byte(`{"schema":999}`)); ok || err != nil {
		t.Fatalf("foreign schema: ok=%v err=%v, want miss", ok, err)
	}
	if _, _, err := DecodePoint([]byte(`not json`)); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

// TestSweepWriteThroughAndWarmStart is the core persistence contract: a
// sweep writes every point through to the store, and a second sweep against
// the same store serves everything from disk — zero new simulations, results
// bit-identical.
func TestSweepWriteThroughAndWarmStart(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	cache := testStoreCache(t, "spmv-crs")
	cfgs := SpadConfigs(soc.DefaultConfig(), soc.DMA, []int{1, 4}, []int{1, 4})

	cold, err := Sweep(context.Background(), k, cfgs, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Store.Len() != len(cfgs) {
		t.Fatalf("store holds %d records, want %d", cache.Store.Len(), len(cfgs))
	}
	putsAfterCold := cache.Store.Stats().Puts

	warm, err := Sweep(context.Background(), k, cfgs, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Store.Stats().Puts; got != putsAfterCold {
		t.Fatalf("warm sweep re-simulated: puts %d -> %d", putsAfterCold, got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm-start results differ from cold run")
	}

	// A reopened store (fresh process) must serve the same space.
	dir := t.TempDir()
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_ = st2 // separate dir: confirm a different store really re-simulates
	miss, err := Sweep(context.Background(), k, cfgs,
		SweepOptions{Cache: &StoreCache{Kernel: "spmv-crs", Store: st2}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, miss) {
		t.Fatal("fresh-store sweep diverged from the original")
	}
}

// TestSweepIsolatedFailuresEnumerated mixes healthy configs with
// guaranteed-abort ones: the evaluator must complete over the survivors,
// report every failure with its class, and the survivors must still rank a
// Pareto front.
func TestSweepIsolatedFailuresEnumerated(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	good := SpadConfigs(soc.DefaultConfig(), soc.DMA, []int{1, 4}, []int{1, 4})
	cfgs := append([]soc.Config{}, good...)
	// A one-picosecond DMA descriptor timeout with zero retries aborts the
	// run before any transfer completes — the injector's give-up path.
	poison := good[0]
	poison.Faults = fault.Config{Seed: 7, DMATimeout: sim.Picosecond, DMARetries: 0}
	cfgs = append(cfgs, poison)
	// A ten-picosecond watchdog budget stalls every config.
	stalled := good[1]
	stalled.WatchdogTicks = 10
	cfgs = append(cfgs, stalled)

	ev := NewEvaluator(EvaluatorOptions{Retry: RetryPolicy{Max: 2}})
	defer ev.Close(context.Background())
	outs, err := ev.Evaluate(context.Background(), "spmv-crs", k, cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var space Space
	failures := map[int]Outcome{}
	for i, o := range outs {
		if o.Res != nil {
			space = append(space, Point{Cfg: cfgs[i], Res: o.Res})
		} else {
			failures[i] = o
		}
	}
	if len(space) != len(good) {
		t.Fatalf("survivors = %d, want %d", len(space), len(good))
	}
	if len(failures) != 2 {
		t.Fatalf("failures = %d, want 2: %+v", len(failures), failures)
	}
	pf, ok := failures[len(good)]
	if !ok || pf.Kind != soc.AbortFault {
		t.Fatalf("poisoned point: %+v", pf)
	}
	if pf.Attempts != 3 {
		t.Fatalf("fault abort attempts = %d, want 3 (1 + Max retries)", pf.Attempts)
	}
	sf, ok := failures[len(good)+1]
	if !ok || sf.Kind != soc.AbortStall {
		t.Fatalf("stalled point: %+v", sf)
	}
	if sf.Attempts != 1 {
		t.Fatalf("stall retried: attempts = %d, want 1 (stalls are permanent)", sf.Attempts)
	}
	if len(space.ParetoFront()) == 0 {
		t.Fatal("no Pareto front over the survivors")
	}
	if _, ok := space.EDPOptimal(); !ok {
		t.Fatal("no EDP optimum over the survivors")
	}
}

// TestSweepIsolatedCachedFailuresReplay pins that stored failures are served
// from the store with their classification intact — a restarted job must not
// burn retry budget re-simulating known-poisoned points.
func TestSweepIsolatedCachedFailuresReplay(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	cache := testStoreCache(t, "spmv-crs")
	cfgs := SpadConfigs(soc.DefaultConfig(), soc.DMA, []int{1}, []int{1, 4})
	for i := range cfgs {
		cfgs[i].WatchdogTicks = 10
	}
	// A fresh evaluator per pass: the second must find the failures in the
	// store, not in the first one's memory.
	evaluate := func() []Outcome {
		t.Helper()
		ev := NewEvaluator(EvaluatorOptions{Store: cache.Store})
		defer ev.Close(context.Background())
		outs, err := ev.Evaluate(context.Background(), cache.Kernel, k, cfgs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	failures := evaluate()
	for i, o := range failures {
		if o.Res != nil {
			t.Fatalf("point %d survived a 10-tick watchdog", i)
		}
	}
	puts := cache.Store.Stats().Puts

	replayed := evaluate()
	if got := cache.Store.Stats().Puts; got != puts {
		t.Fatalf("replay re-simulated failed points: puts %d -> %d", puts, got)
	}
	if len(replayed) != len(failures) {
		t.Fatalf("replayed failures = %d, want %d", len(replayed), len(failures))
	}
	for i := range replayed {
		if replayed[i].Kind != failures[i].Kind {
			t.Fatalf("failure %d kind drifted: %q -> %q (classification must survive the store)",
				i, failures[i].Kind, replayed[i].Kind)
		}
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{Max: 5, Backoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 40, 40}
	for i, w := range want {
		if d := p.Delay(i + 1); d != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, d, w*time.Millisecond)
		}
	}
	if d := (RetryPolicy{Max: 1}).Delay(1); d != 0 {
		t.Fatalf("zero-backoff Delay = %v", d)
	}
	if (RetryPolicy{}).Retryable(soc.AbortFault) {
		t.Fatal("zero policy must not retry")
	}
	if (RetryPolicy{Max: 1}).Retryable(soc.AbortStall) {
		t.Fatal("stalls must never be retryable")
	}
	if (RetryPolicy{Max: 1}).Retryable(soc.AbortSanitize) {
		t.Fatal("sanitizer violations must never be retryable")
	}
	if !(RetryPolicy{Max: 1}).Retryable(soc.AbortFault) {
		t.Fatal("fault aborts must be retryable under a positive budget")
	}
}
