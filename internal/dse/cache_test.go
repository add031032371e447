package dse

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"gem5aladdin/internal/core"
	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
)

func testStoreCache(t testing.TB, kernel string) *StoreCache {
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

	data := EncodePoint(&CachedPoint{Result: res})
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
	fdata := EncodePoint(&CachedPoint{Aborted: true, Kind: soc.AbortStall,
		Err: "soc: run aborted: stall", Attempts: 3})
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
	cfgs := spadGrid(soc.DMA, []int{1, 4}, []int{1, 4})

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
	good := spadGrid(soc.DMA, []int{1, 4}, []int{1, 4})
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
	cfgs := spadGrid(soc.DMA, []int{1}, []int{1, 4})
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

// TestDecodePointRejectsOutcomeless pins that a record must hold exactly one
// outcome: a point with neither a result nor a classified abort used to
// replay as an aborted point with a nil error and crash the job streamer.
func TestDecodePointRejectsOutcomeless(t *testing.T) {
	res := &soc.RunResult{Cycles: 1}
	for name, cp := range map[string]*CachedPoint{
		"empty":              {},
		"unclassified abort": {Aborted: true, Kind: KindError, Err: "boom"},
		"unlabelled abort":   {Aborted: true},
		"result and abort":   {Aborted: true, Kind: soc.AbortStall, Result: res},
	} {
		data := EncodePoint(cp)
		if _, ok, err := DecodePoint(data); ok || err == nil {
			t.Errorf("%s: ok=%v err=%v, want an error", name, ok, err)
		}
	}
}

// stencilPoints simulates the default stencil3d DMA and cache design points:
// the records the codec gates and benchmarks measure.
func stencilPoints(tb testing.TB) []*CachedPoint {
	tb.Helper()
	k := kernelOf(tb, "stencil-stencil3d")
	var cps []*CachedPoint
	for _, mem := range []soc.MemKind{soc.DMA, soc.Cache} {
		res, err := soc.Run(k, memConfig(mem))
		if err != nil {
			tb.Fatal(err)
		}
		cps = append(cps, &CachedPoint{Result: res})
	}
	return cps
}

// TestPointCodecAllocs gates the replay path's allocations, which are
// deterministic: decoding a stored result allocates the point, its result
// and one array per non-nil slice (LaneOps here), encoding a point
// allocates only the record, and keying a point only the key string.
func TestPointCodecAllocs(t *testing.T) {
	for _, cp := range stencilPoints(t) {
		data := EncodePoint(cp)
		mem := cp.Result.Config.Mem
		if a := testing.AllocsPerRun(100, func() {
			if _, ok, err := DecodePoint(data); !ok || err != nil {
				t.Fatalf("DecodePoint: ok=%v err=%v", ok, err)
			}
		}); a > 3 {
			t.Errorf("%v: DecodePoint allocates %.0f times per record, want <= 3", mem, a)
		}
		if a := testing.AllocsPerRun(100, func() { EncodePoint(cp) }); a > 1 {
			t.Errorf("%v: EncodePoint allocates %.0f times per record, want <= 1", mem, a)
		}
		if a := testing.AllocsPerRun(100, func() {
			PointKey("stencil-stencil3d", cp.Result.Config)
		}); a > 1 {
			t.Errorf("%v: PointKey allocates %.0f times, want <= 1", mem, a)
		}
	}
}

// TestPointCodecConcurrent runs EncodePoint, DecodePoint and PointKey from
// eight goroutines at once, over points every goroutine shares and a point
// each one owns and changes between calls. The compiled walk programs are
// shared by every caller, so a walk that kept state in them would race here
// under -race or return another caller's bytes.
func TestPointCodecConcurrent(t *testing.T) {
	shared := stencilPoints(t)
	records := make([][]byte, len(shared))
	keys := make([]string, len(shared))
	for i, cp := range shared {
		cp.Schema = pointSchema // as decoded
		records[i] = EncodePoint(cp)
		keys[i] = PointKey("stencil-stencil3d", cp.Result.Config)
	}
	const workers = 8
	owned := make([]*CachedPoint, workers)
	for w := range owned {
		owned[w] = filledPoint(t)
		owned[w].Schema = pointSchema
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(own *CachedPoint) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for j, cp := range shared {
					got, ok, err := DecodePoint(records[j])
					if !ok || err != nil || !sameBits(reflect.ValueOf(got).Elem(), reflect.ValueOf(cp).Elem()) {
						t.Errorf("shared point %d decodes to another point: ok=%v err=%v", j, ok, err)
						return
					}
					if !bytes.Equal(EncodePoint(cp), records[j]) || PointKey("stencil-stencil3d", cp.Result.Config) != keys[j] {
						t.Errorf("shared point %d encodes or keys differently", j)
						return
					}
				}
				own.Result.Cycles++
				own.Result.Config.Lanes++
				data := EncodePoint(own)
				got, ok, err := DecodePoint(data)
				if !ok || err != nil || !sameBits(reflect.ValueOf(got).Elem(), reflect.ValueOf(own).Elem()) {
					t.Errorf("owned point does not round-trip: ok=%v err=%v", ok, err)
					return
				}
				if PointKey("k", got.Result.Config) != PointKey("k", own.Result.Config) {
					t.Error("owned point keys differently after a round trip")
					return
				}
			}
		}(owned[w])
	}
	wg.Wait()
}

var (
	benchPoint *CachedPoint
	benchBytes []byte
	benchKey   string
)

func BenchmarkDecodePoint(b *testing.B) {
	for _, cp := range stencilPoints(b) {
		data := EncodePoint(cp)
		b.Run(cp.Result.Config.Mem.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(data)), "B/record")
			for i := 0; i < b.N; i++ {
				benchPoint, _, _ = DecodePoint(data)
			}
		})
	}
}

func BenchmarkEncodePoint(b *testing.B) {
	for _, cp := range stencilPoints(b) {
		b.Run(cp.Result.Config.Mem.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchBytes = EncodePoint(cp)
			}
		})
	}
}

func BenchmarkPointKey(b *testing.B) {
	for _, cp := range stencilPoints(b) {
		cfg := cp.Result.Config
		b.Run(cfg.Mem.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchKey = PointKey("stencil-stencil3d", cfg)
			}
		})
	}
}

// TestPointRecordCoversEveryField is the codec's coverage gate, the record
// twin of soc's TestCanonicalCoversEveryField: every leaf of CachedPoint
// except Config.Obs gets a distinct non-zero value, and the decoded point
// must equal the original. A field the walk dropped or misread comes back
// zero or wrong. Every slice and pointer is then also tried nil, empty (or
// pointing at a zero value) and set, so nil stays distinct from empty.
func TestPointRecordCoversEveryField(t *testing.T) {
	roundTrip := func(name string, cp *CachedPoint) {
		t.Helper()
		cp.Schema = pointSchema
		data := EncodePoint(cp)
		got, ok, err := DecodePoint(data)
		if err != nil || !ok {
			t.Fatalf("%s: DecodePoint: ok=%v err=%v", name, ok, err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Errorf("%s: decoded point differs:\n got %+v\nwant %+v", name, got, cp)
		}
	}
	for _, p := range everyFieldPoints(t) {
		roundTrip(p.name, p.cp)
	}

	mut := filledPoint(t)
	mut.Result.Config.Obs = obs.New(false)
	data := EncodePoint(mut)
	if got, _, _ := DecodePoint(data); got == nil || got.Result.Config.Obs != nil {
		t.Error("Config.Obs leaked into the point record")
	}
}

type namedPoint struct {
	name string
	cp   *CachedPoint
}

// everyFieldPoints is the record coverage set: filledPoint, its abort twin,
// and filledPoint with each slice and pointer under it nil, empty (or
// pointing at a zero value) and set.
func everyFieldPoints(t testing.TB) []namedPoint {
	out := []namedPoint{{"every field set", filledPoint(t)}}
	abort := filledPoint(t)
	abort.Result, abort.Aborted, abort.Kind = nil, true, soc.AbortSanitize
	out = append(out, namedPoint{"abort", abort})

	for _, idx := range refLeaves(reflect.TypeOf(CachedPoint{}), nil) {
		for _, variant := range []string{"nil", "empty", "set"} {
			cp := filledPoint(t)
			v := reflect.ValueOf(cp).Elem().FieldByIndex(idx)
			switch {
			case variant == "nil":
				v.Set(reflect.Zero(v.Type()))
			case variant == "empty" && v.Kind() == reflect.Slice:
				v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			case variant == "empty":
				v.Set(reflect.New(v.Type().Elem()))
			}
			if cp.Result == nil {
				cp.Aborted, cp.Kind = true, soc.AbortFault
			}
			out = append(out, namedPoint{fmt.Sprintf("%v %s", idx, variant), cp})
		}
	}
	return out
}

// filledPoint is a result point with every leaf set by fillLeaves.
func filledPoint(t testing.TB) *CachedPoint {
	t.Helper()
	cp := &CachedPoint{}
	n := 0
	fillLeaves(reflect.ValueOf(cp).Elem(), &n)
	if n < 100 {
		t.Fatalf("leaf enumeration looks broken: only %d leaves", n)
	}
	cp.Aborted = false // a record holds a result or an abort, not both
	return cp
}

// TestPointRecordGolden pins the bytes of the point record, which every
// durable store holds: one SHA-256 over the records of both stencilPoints
// results, an abort of each kind, the record coverage set and a result
// whose floats are NaN, -0 and ±Inf. It was computed before the record
// codec ran from a compiled field program; never edit it. A mismatch means
// stored points no longer replay as they were written.
func TestPointRecordGolden(t *testing.T) {
	cps := stencilPoints(t)
	for _, kind := range []string{soc.AbortStall, soc.AbortSanitize, soc.AbortFault} {
		cps = append(cps, &CachedPoint{Aborted: true, Kind: kind, Err: "soc: run aborted: " + kind, Attempts: 2})
	}
	for _, p := range everyFieldPoints(t) {
		cps = append(cps, p.cp)
	}
	cps = append(cps, &CachedPoint{Result: &soc.RunResult{
		AvgPowerW: math.NaN(), EDPJs: math.Copysign(0, -1), TransferJ: math.Inf(1), AreaMM2: math.Inf(-1),
	}})
	h := sha256.New()
	for _, cp := range cps {
		data := EncodePoint(cp)
		h.Write(binary.AppendUvarint(nil, uint64(len(data))))
		h.Write(data)
	}
	const want = "93a98fd72ab67bab3b9f8da2984f2e5313a412279d1b7308f0ee3239253591fe"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%d point records digest to %s, want %s", len(cps), got, want)
	}
}

// fillLeaves sets every leaf under v, except Obs fields, to a distinct
// non-zero value drawn from *n; pointers get a filled element and slices two
// filled elements.
func fillLeaves(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*n++
		v.SetInt(-int64(wideLeaf(v, *n)))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*n++
		v.SetUint(wideLeaf(v, *n))
	case reflect.Float32, reflect.Float64:
		*n++
		v.SetFloat(-float64(*n) - 0.25)
	case reflect.String:
		*n++
		v.SetString(fmt.Sprint("leaf", *n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillLeaves(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillLeaves(v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Name != "Obs" {
				fillLeaves(v.Field(i), n)
			}
		}
	}
}

// wideLeaf is a distinct value using the top bits of v's width, so wide
// fields take multi-byte varints.
func wideLeaf(v reflect.Value, n int) uint64 {
	top := uint64(1) << (v.Type().Bits() - 2)
	return top | uint64(n)%top
}

// refLeaves lists the field index paths of every slice and pointer under
// struct type t, through nested structs and pointers to structs.
func refLeaves(t reflect.Type, index []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Name == "Obs" {
			continue
		}
		idx := append(append([]int{}, index...), i)
		ft := f.Type
		switch ft.Kind() {
		case reflect.Slice:
			out = append(out, idx)
		case reflect.Pointer:
			out = append(out, idx)
			if ft.Elem().Kind() == reflect.Struct {
				out = append(out, refLeaves(ft.Elem(), idx)...)
			}
		case reflect.Struct:
			out = append(out, refLeaves(ft, idx)...)
		}
	}
	return out
}

// TestPointLayoutFingerprint pins what the record header's layout
// fingerprint covers: field names, field kinds and array lengths, at any
// depth. Type names are not part of it.
func TestPointLayoutFingerprint(t *testing.T) {
	type inner struct{ D string }
	type base struct {
		A int
		B [2]uint64
		C *inner
	}
	type sameLayout struct {
		A int
		B [2]uint64
		C *struct{ D string }
	}
	fp := func(v any) [8]byte { return layoutFingerprint(soc.PlanOf(reflect.TypeOf(v))) }
	want := fp(base{})
	if fp(sameLayout{}) != want {
		t.Error("identical layouts under different type names fingerprint differently")
	}
	for name, v := range map[string]any{
		"field name": struct {
			A2 int
			B  [2]uint64
			C  *inner
		}{},
		"field kind": struct {
			A uint
			B [2]uint64
			C *inner
		}{},
		"array length": struct {
			A int
			B [3]uint64
			C *inner
		}{},
		"nested field name": struct {
			A int
			B [2]uint64
			C *struct{ E string }
		}{},
		"nested field kind": struct {
			A int
			B [2]uint64
			C *struct{ D []byte }
		}{},
	} {
		if fp(v) == want {
			t.Errorf("a change of %s keeps the fingerprint", name)
		}
	}
	if pointLayout == ([8]byte{}) || pointLayout != fp(CachedPoint{}) {
		t.Error("pointLayout is not CachedPoint's fingerprint")
	}

	// A kind no walk can encode fails when the plan is built, before any
	// record is written.
	for name, v := range map[string]any{
		"map":       struct{ M map[string]int }{},
		"interface": struct{ I any }{},
		"func":      struct{ F func() }{},
		"chan":      struct{ C chan int }{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("soc.PlanOf accepted a %s field", name)
				}
			}()
			soc.PlanOf(reflect.TypeOf(v))
		}()
	}
}

// pointHeader is the record header followed by the first body fields of an
// outcome-less point: Schema, Aborted, and the lengths and bytes of Kind and
// Err come next.
func pointHeader() []byte {
	return append(append([]byte{pointMagic}, pointLayout[:]...), pointSchema<<1, 0)
}

// TestDecodePointRejectsMalformed pins the decoder's bounds: a length prefix
// beyond the record, a value that overflows its field, a bad flag byte, a
// truncated record and trailing bytes are errors, never panics or
// oversized allocations; a record of another layout is a miss.
func TestDecodePointRejectsMalformed(t *testing.T) {
	valid := EncodePoint(&CachedPoint{Aborted: true, Kind: soc.AbortStall, Err: "stall", Attempts: 1})
	for i := 0; i < len(valid); i++ {
		if _, ok, err := DecodePoint(valid[:i]); ok || err == nil {
			t.Fatalf("record truncated to %d of %d bytes: ok=%v err=%v", i, len(valid), ok, err)
		}
	}
	// A whole record with a result whose Config.Mem (a uint8, the first
	// field after the Result flag) is 300: only the width check rejects it.
	whole := EncodePoint(&CachedPoint{Result: &soc.RunResult{Config: soc.DefaultConfig()}})
	mem := len(pointHeader()) + 4 // Kind, Err, Attempts, the Result flag
	if !bytes.HasPrefix(whole, append(pointHeader(), 0, 0, 0, 1)) || whole[mem] != byte(soc.DefaultConfig().Mem) {
		t.Fatalf("record layout moved: % x", whole[:mem+1])
	}
	if _, ok, err := DecodePoint(whole); !ok || err != nil {
		t.Fatalf("valid result record: ok=%v err=%v", ok, err)
	}
	overflow := append(binary.AppendUvarint(append([]byte{}, whole[:mem]...), 300), whole[mem+1:]...)
	for name, data := range map[string][]byte{
		"string length beyond the record": binary.AppendUvarint(pointHeader(), 1<<40),
		"huge string length":              binary.AppendUvarint(pointHeader(), math.MaxUint64),
		"uint8 overflow":                  overflow,
		"bool byte 2":                     append(append([]byte{}, valid[:1+len(pointLayout)+1]...), 2),
		"trailing bytes":                  append(append([]byte{}, valid...), 0),
		"unknown magic":                   append([]byte{'x'}, valid[1:]...),
	} {
		if _, ok, err := DecodePoint(data); ok || err == nil {
			t.Errorf("%s: ok=%v err=%v, want an error", name, ok, err)
		}
	}
	foreign := append([]byte{}, valid...)
	foreign[1] ^= 0xff
	if _, ok, err := DecodePoint(foreign); ok || err != nil {
		t.Errorf("foreign layout: ok=%v err=%v, want a miss", ok, err)
	}
}

// FuzzDecodePoint feeds arbitrary bytes to the decoder: it must never panic
// and must end every input as a point, a miss or an error, and any point it
// accepts must re-encode to a record that decodes to the same point, floats
// compared by their bits.
func FuzzDecodePoint(f *testing.F) {
	for _, cp := range []*CachedPoint{
		{Result: &soc.RunResult{Cycles: 7, Datapath: core.Stats{LaneOps: []uint64{1, 2}},
			FaultLog: []fault.Record{{Seq: 1, Addr: 64}}}},
		{Aborted: true, Kind: soc.AbortFault, Err: "soc: run aborted: fault", Attempts: 3},
		{Result: &soc.RunResult{EDPJs: math.NaN()}},
		{},
	} {
		data := EncodePoint(cp)
		f.Add(data)
	}
	for _, p := range everyFieldPoints(f) {
		f.Add(EncodePoint(p.cp))
	}
	f.Add([]byte(`{"schema":1}`))
	f.Add([]byte("not a record"))
	f.Add(binary.AppendUvarint(pointHeader(), 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, ok, err := DecodePoint(data)
		if ref, rok, rerr := decodePointReference(data); !sameVerdict(cp, ok, err, ref, rok, rerr) {
			t.Fatalf("DecodePoint: ok=%v err=%v; the reference decoder: ok=%v err=%v", ok, err, rok, rerr)
		}
		switch {
		case err != nil || !ok:
			if cp != nil || (ok && err != nil) {
				t.Fatalf("ok=%v err=%v with a point", ok, err)
			}
		default:
			again := EncodePoint(cp)
			cp2, ok, err := DecodePoint(again)
			if !ok || err != nil || !sameBits(reflect.ValueOf(cp).Elem(), reflect.ValueOf(cp2).Elem()) {
				t.Fatalf("accepted point does not round-trip: ok=%v err=%v", ok, err)
			}
		}
	})
}

// sameBits reports whether a and b hold the same point, as
// reflect.DeepEqual does, except that floats compare by their bits: the
// codec keeps a NaN, which DeepEqual calls unequal to itself, and keeps -0
// apart from 0, which DeepEqual calls equal. It walks the kinds a point
// holds.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
	default: // reflect.Struct
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
	}
	return true
}

// jsonCheckpoint writes st as the schema-1 JSON checkpoint record the
// search wrote before the binary record.
func jsonCheckpoint(t testing.TB, fp string, st *searchState) []byte {
	t.Helper()
	points := make([]SearchPoint, len(st.Archive))
	for i := range st.Archive {
		points[i] = st.Archive[i].SearchPoint
	}
	data, err := json.Marshal(struct {
		Schema      int           `json:"schema"`
		Fingerprint string        `json:"fingerprint"`
		Round       int           `json:"round"`
		RNG         uint64        `json:"rng"`
		Stale       int           `json:"stale"`
		RoundEvals  []int         `json:"round_evals"`
		Points      []SearchPoint `json:"points"`
	}{1, fp, st.Round, st.RNG, st.Stale, st.RoundEvals, points})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointRecordSize gates the record a search writes after every
// round: a 128-point archive over the paper-scale cache space, fabric axis
// included, encodes in one allocation, the record itself, and in at most
// 32 B per point plus a fixed header. The schema-1 JSON record took about
// 100 B per point.
func TestCheckpointRecordSize(t *testing.T) {
	base := soc.DefaultConfig()
	base.Mem = soc.Cache
	sp := SearchSpace{Base: base, Axes: append(DefaultSearchAxes(soc.Cache), FabricAxis())}
	fp := sp.Fingerprint("spmv-crs", 1)
	rng := searchRNG{state: 1}
	st := &searchState{Round: 3, RNG: rng.state, Stale: 1, RoundEvals: []int{64, 96, 128}}
	for len(st.Archive) < 128 {
		p := SearchPoint{Idx: sp.Unrank(rng.next() % sp.Size())}
		if len(st.Archive)%16 == 15 {
			p.Failed = true
		} else {
			p.Runtime = int64(rng.next() % (1 << 34)) // up to 17 ms
			p.PowerW = float64(rng.next()%1000) / 7e3
			p.EDPJs = p.PowerW * math.Pow(float64(p.Runtime)/1e12, 2)
		}
		st.Archive = append(st.Archive, candidate{SearchPoint: p})
	}
	var rec []byte
	if a := testing.AllocsPerRun(100, func() { rec = encodeSearchState(sp, fp, st) }); a > 1 {
		t.Errorf("encoding a checkpoint allocates %.0f times, want <= 1", a)
	}
	// Magic, schema, fingerprint, round, RNG, stale, round_evals, count.
	const header = 128
	if limit := header + 32*len(st.Archive); len(rec) > limit {
		t.Errorf("%d-point checkpoint takes %d B, want <= %d", len(st.Archive), len(rec), limit)
	}
	if got := decodeSearchState(rec, sp, fp); got == nil || !bytes.Equal(encodeSearchState(sp, fp, got), rec) {
		t.Error("checkpoint does not round-trip")
	}
	t.Logf("%d points in %d B; schema-1 JSON took %d B", len(st.Archive), len(rec), len(jsonCheckpoint(t, fp, st)))
}

// FuzzSearchCheckpoint feeds arbitrary bytes to the checkpoint decoder: it
// must never panic nor allocate more than the points and rounds the input
// can hold, and any record it accepts must be a consistent search state
// that re-encodes to the same bytes.
func FuzzSearchCheckpoint(f *testing.F) {
	sp := searchTestSpace()
	fp := sp.Fingerprint("spmv-crs", 5)
	cache := testStoreCache(f, "spmv-crs")
	if _, err := Search(context.Background(), kernelOf(f, "spmv-crs"), sp, SearchOptions{
		Seed: 5, Budget: 24, InitSamples: 8, RoundSize: 8, Cache: cache, CheckpointKey: "search/fuzz",
	}); err != nil {
		f.Fatal(err)
	}
	rec, ok, err := cache.Store.Get("search/fuzz")
	if err != nil || !ok {
		f.Fatalf("no checkpoint stored: ok=%v err=%v", ok, err)
	}
	st := decodeSearchState(rec, sp, fp)
	if st == nil || st.Round != 3 {
		f.Fatalf("stored checkpoint does not decode to 3 rounds: %+v", st)
	}
	f.Add(rec)
	for i := range rec {
		f.Add(rec[:i])
	}
	f.Add(append(append([]byte{}, rec...), 0))
	// The round count, after magic, schema and fingerprint, as a
	// non-minimal varint.
	head := 2 + len(fp)
	f.Add(slices.Concat(rec[:head], []byte{0x80 | rec[head], 0}, rec[head+1:]))
	f.Add(jsonCheckpoint(f, fp, st))
	last := &st.Archive[len(st.Archive)-1].SearchPoint
	if last.Failed {
		f.Fatal("the stored search's last point failed")
	}
	// The last point's flag byte, before its runtime, power and EDP.
	flag2 := append([]byte{}, rec...)
	flag2[len(flag2)-17-len(binary.AppendVarint(nil, last.Runtime))] = 2
	f.Add(flag2)
	last.Idx[0] = len(sp.Axes[0].Values) // rank >= Size()
	f.Add(encodeSearchState(sp, fp, st))

	// A point takes two bytes or more and decodes to a candidate and its
	// axis indices; a round's count takes one byte and decodes to an int.
	perPoint := int(unsafe.Sizeof(candidate{})) + 8*len(sp.Axes)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st := decodeSearchState(data, sp, fp)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, len(data)/2*perPoint+8*len(data)+64<<10; grew > uint64(limit) {
			t.Fatalf("decoding %d bytes allocated %d B, want <= %d", len(data), grew, limit)
		}
		if st == nil {
			return
		}
		if len(st.RoundEvals) != st.Round || st.Stale > st.Round {
			t.Fatalf("accepted %d rounds, %d stale, %d round counts", st.Round, st.Stale, len(st.RoundEvals))
		}
		prev := 0
		for _, cum := range st.RoundEvals {
			if cum <= prev {
				t.Fatalf("accepted round counts %v", st.RoundEvals)
			}
			prev = cum
		}
		if prev != len(st.Archive) {
			t.Fatalf("accepted %d points after round counts %v", len(st.Archive), st.RoundEvals)
		}
		for _, c := range st.Archive {
			if sp.Rank(c.Idx) >= sp.Size() || (c.Failed && (c.Runtime != 0 || c.PowerW != 0 || c.EDPJs != 0)) {
				t.Fatalf("accepted point %+v", c.SearchPoint)
			}
		}
		if again := encodeSearchState(sp, fp, st); !bytes.Equal(again, data) {
			t.Fatalf("accepted record re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}
