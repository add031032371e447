package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/serve"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/trace"
)

// quickReq is a 4-point DMA grid on the cheapest interesting kernel: small
// enough that a full test run sweeps it many times, rich enough that the
// Pareto front and EDP optimum are non-trivial.
func quickReq() serve.SweepRequest {
	return serve.SweepRequest{
		Kernel:       "spmv-crs",
		Mem:          "dma",
		Lanes:        []int{1, 2},
		Partitions:   []int{1, 2},
		IncludeSpace: true,
	}
}

func newTestServer(t *testing.T, opt serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postSweep(t *testing.T, url string, req serve.SweepRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func decodeSweep(t *testing.T, body []byte) serve.SweepResponse {
	t.Helper()
	var resp serve.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding sweep response: %v\n%s", err, body)
	}
	return resp
}

// directSweep replays the request's grid through dse.Sweep in-process and
// flattens it exactly as the service does: the ground truth responses must
// match bit for bit.
func directSweep(t *testing.T, req serve.SweepRequest) (space, pareto []report.Record, edp *report.Record) {
	t.Helper()
	cfgs, err := req.Configs()
	if err != nil {
		t.Fatal(err)
	}
	k := soc.Compile(ddg.Build(machsuite.MustBuild(req.Kernel)))
	sp, err := dse.Sweep(context.Background(), k, cfgs, dse.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results := func(sp dse.Space) []*soc.RunResult {
		rs := make([]*soc.RunResult, len(sp))
		for i, p := range sp {
			rs[i] = p.Res
		}
		return rs
	}
	space = report.FromResults(req.Kernel, results(sp))
	pareto = report.FromResults(req.Kernel, results(sp.ParetoFront()))
	if best, ok := sp.EDPOptimal(); ok {
		rec := report.FromResult(req.Kernel, best.Res)
		edp = &rec
	}
	return space, pareto, edp
}

// TestSweepMatchesDirectSweep is the service's correctness anchor: a cold
// response and a fully cached response both decode to exactly the records a
// direct dse.Sweep produces (Go's JSON float64 encoding round-trips, so
// reflect.DeepEqual means bit-identical values).
func TestSweepMatchesDirectSweep(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 2})
	req := quickReq()
	wantSpace, wantPareto, wantEDP := directSweep(t, req)

	for round, wantCached := range []int{0, len(wantSpace)} {
		code, body := postSweep(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, code, body)
		}
		resp := decodeSweep(t, body)
		if !reflect.DeepEqual(resp.Space, wantSpace) {
			t.Errorf("round %d: space differs from direct sweep\ngot:  %+v\nwant: %+v",
				round, resp.Space, wantSpace)
		}
		if !reflect.DeepEqual(resp.Pareto, wantPareto) {
			t.Errorf("round %d: pareto differs from direct sweep", round)
		}
		if !reflect.DeepEqual(resp.EDPOptimal, wantEDP) {
			t.Errorf("round %d: EDP optimum differs: got %+v want %+v",
				round, resp.EDPOptimal, wantEDP)
		}
		if resp.RequestedPoints != 4 || resp.EvaluatedPoints != 4 || resp.AbortedPoints != 0 {
			t.Errorf("round %d: counts %d/%d/%d, want 4/4/0",
				round, resp.RequestedPoints, resp.EvaluatedPoints, resp.AbortedPoints)
		}
		if resp.CachedPoints != wantCached {
			t.Errorf("round %d: cached %d, want %d", round, resp.CachedPoints, wantCached)
		}
	}
	if snap := s.Snapshot(); snap.PointsSimulated != 4 {
		t.Errorf("simulated %d points across two identical sweeps, want 4", snap.PointsSimulated)
	}
}

// TestConcurrentIdenticalRequestsSingleflight fires 32 concurrent copies of
// the same sweep: the content-addressed cache plus singleflight join must
// collapse them to exactly one simulation per unique design point, and every
// response must be identical.
func TestConcurrentIdenticalRequestsSingleflight(t *testing.T) {
	const n = 32
	s, ts := newTestServer(t, serve.Options{Workers: 4, QueueDepth: n})
	req := quickReq()

	var wg sync.WaitGroup
	start := make(chan struct{})
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], bodies[i] = postSweep(t, ts.URL, req)
		}(i)
	}
	close(start)
	wg.Wait()

	first := decodeSweep(t, bodies[0])
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		got := decodeSweep(t, bodies[i])
		// Timing and per-request cache luck legitimately differ.
		got.ElapsedMS, first.ElapsedMS = 0, 0
		got.CachedPoints, first.CachedPoints = 0, 0
		if !reflect.DeepEqual(got, first) {
			t.Errorf("request %d: response differs from request 0", i)
		}
	}

	snap := s.Snapshot()
	if snap.PointsSimulated != 4 {
		t.Errorf("simulated %d points for %d identical 4-point sweeps, want exactly 4",
			snap.PointsSimulated, n)
	}
	if snap.CacheMisses != 4 || snap.CacheHits != 4*n-4 {
		t.Errorf("cache hits/misses = %d/%d, want %d/4",
			snap.CacheHits, snap.CacheMisses, 4*n-4)
	}
	wantSpace, _, _ := directSweep(t, req)
	if !reflect.DeepEqual(first.Space, wantSpace) {
		t.Errorf("concurrent responses differ from direct sweep")
	}
}

// TestBackpressure saturates a QueueDepth=1 server with a request pinned
// inside kernel resolution, and checks the next request is turned away with
// 429 and a Retry-After hint instead of queueing.
func TestBackpressure(t *testing.T) {
	block := make(chan struct{})
	s, ts := newTestServer(t, serve.Options{
		Workers:    1,
		QueueDepth: 1,
		BuildKernel: func(name string) (*trace.Trace, error) {
			<-block
			return nil, fmt.Errorf("%w: %s is synthetic", serve.ErrUnknownKernel, name)
		},
	})

	done := make(chan int, 1)
	go func() {
		code, _ := postSweep(t, ts.URL, quickReq())
		done <- code
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Snapshot().ActiveRequests == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	body, _ := json.Marshal(quickReq())
	resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	close(block)
	if code := <-done; code != http.StatusBadRequest {
		t.Errorf("pinned request finished with %d, want 400 (unknown kernel)", code)
	}
	if snap := s.Snapshot(); snap.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", snap.Rejected)
	}
}

// TestCancellationReleasesWorker times a sweep out mid-flight on a 1-worker
// server, then proves the worker was released: the identical follow-up sweep
// completes, and no design point was simulated more than once — abandoned
// points were skipped, queued ones were adopted by the second request.
func TestCancellationReleasesWorker(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 1})
	req := quickReq()
	req.Lanes = []int{1, 2, 4}
	req.Partitions = []int{1, 2, 4}

	timed := req
	timed.TimeoutMS = 1
	code, body := postSweep(t, ts.URL, timed)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("1ms sweep returned %d, want 504: %s", code, body)
	}

	code, body = postSweep(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("follow-up sweep returned %d: %s", code, body)
	}
	resp := decodeSweep(t, body)
	if resp.EvaluatedPoints != 9 {
		t.Fatalf("follow-up evaluated %d points, want 9", resp.EvaluatedPoints)
	}
	if snap := s.Snapshot(); snap.PointsSimulated != 9 {
		t.Errorf("simulated %d points across timeout + retry, want exactly 9 (no rework, no stuck slots)",
			snap.PointsSimulated)
	}
}

// TestShutdownDrains completes a sweep, shuts the pool down, and checks new
// requests are refused while the shutdown itself reports a clean drain.
func TestShutdownDrains(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := postSweep(t, ts.URL, quickReq()); code != http.StatusOK {
		t.Fatalf("sweep returned %d: %s", code, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _ := postSweep(t, ts.URL, quickReq()); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown sweep returned %d, want 503", code)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})

	resp, err := http.Get(ts.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sweep = %d, want 405", resp.StatusCode)
	}

	for name, req := range map[string]serve.SweepRequest{
		"unknown kernel": {Kernel: "no-such-kernel"},
		"unknown mem":    {Kernel: "spmv-crs", Mem: "telepathy"},
		"invalid grid":   {Kernel: "spmv-crs", Mem: "dma", Partitions: []int{0}},
		// One infeasible scratchpad point fails the whole grid with its
		// ConfigError; only cache grids prune infeasible geometries.
		"infeasible grid point": {Kernel: "spmv-crs", Mem: "dma", Partitions: []int{0, 4}},
	} {
		if code, body := postSweep(t, ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, code, body)
		}
	}
	resp, err = http.Post(ts.URL+"/sweep", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

// TestOversizedGridRejected: a grid request whose cross product exceeds the
// server's bound is a 400 from /sweep and POST /jobs alike, answered before
// any config is enumerated. The body is about 1.3 KB — repeated axis values
// are accepted — yet names 300 x 300 = 90,000 points.
func TestOversizedGridRejected(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 1})
	req := serve.SweepRequest{Kernel: "spmv-crs", Mem: "dma",
		Lanes: make([]int, 300), Partitions: make([]int, 300)}
	for i := range req.Lanes {
		req.Lanes[i] = 1
		req.Partitions[i] = 1
	}
	if code, body := postSweep(t, ts.URL, req); code != http.StatusBadRequest {
		t.Errorf("POST /sweep: status %d, want 400: %.200s", code, body)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /jobs: status %d, want 400", resp.StatusCode)
	}
	if snap := s.Snapshot(); snap.PointsSimulated != 0 || snap.JobsSubmitted != 0 {
		t.Errorf("rejected grid simulated %d points and submitted %d jobs, want 0 and 0",
			snap.PointsSimulated, snap.JobsSubmitted)
	}
}

// TestFullServerRejectsBeforeEnumerating sends a grid at the maxGridPoints
// bound (256 x 256 repeated values, 65,536 valid DMA points) to a server
// whose /sweep queue and job limit are both full. Each must answer 429
// without enumerating the grid first: one in-process request may allocate
// under 1 MB, where the grid's configs alone take about 23 MB.
func TestFullServerRejectsBeforeEnumerating(t *testing.T) {
	block := make(chan struct{})
	s, ts := newTestServer(t, serve.Options{
		Workers:    1,
		QueueDepth: 1,
		MaxJobs:    1,
		BuildKernel: func(name string) (*trace.Trace, error) {
			<-block
			return nil, fmt.Errorf("%w: %s is synthetic", serve.ErrUnknownKernel, name)
		},
	})

	small, _ := json.Marshal(quickReq())
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job: status %d, want 202", resp.StatusCode)
	}
	done := make(chan int, 1)
	go func() {
		code, _ := postSweep(t, ts.URL, quickReq())
		done <- code
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Snapshot().ActiveRequests == 0 {
		if time.Now().After(deadline) {
			close(block)
			t.Fatal("first sweep never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	req := serve.SweepRequest{Kernel: "spmv-crs", Mem: "dma",
		Lanes: make([]int, 256), Partitions: make([]int, 256)}
	for i := range req.Lanes {
		req.Lanes[i] = 1
		req.Partitions[i] = 1
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, path := range []string{"/sweep", "/jobs"} {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, r)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusTooManyRequests {
			t.Errorf("POST %s: status %d, want 429: %.200s", path, rec.Code, rec.Body.String())
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("POST %s allocated %d B before its 429, want under 1 MB", path, n)
		}
	}
	close(block)
	if code := <-done; code != http.StatusBadRequest {
		t.Errorf("pinned sweep finished with %d, want 400 (unknown kernel)", code)
	}
}

func TestObservabilityEndpoints(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	if code, body := postSweep(t, ts.URL, quickReq()); code != http.StatusOK {
		t.Fatalf("sweep returned %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "serve.requests") ||
		!strings.Contains(string(text), "serve.sweep.latency_p99") {
		t.Errorf("statsz missing service stats:\n%s", text)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# HELP serve_requests sweep requests received",
		"# TYPE serve_requests counter",
		"serve_points_simulated 4",
		"# TYPE serve_sweep_latency_ms histogram",
		`serve_sweep_latency_ms_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, prom)
		}
	}

	resp, err = http.Get(ts.URL + "/kernels")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	err = json.NewDecoder(resp.Body).Decode(&names)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range names {
		found = found || n == "spmv-crs"
	}
	if !found {
		t.Errorf("kernel list %v missing spmv-crs", names)
	}
}

// syncBuf is a goroutine-safe bytes.Buffer: request handlers and workers
// log concurrently.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTracingAndLogging exercises the request-scoped observability path:
// a traced, logged sweep returns its trace ID, the trace exports as
// Perfetto JSON with the request's phase and point spans, every finished
// span lands in the JSONL sink, and the structured log carries the
// request and slow-point records tagged with the same trace ID.
func TestTracingAndLogging(t *testing.T) {
	var spanLog, logBuf syncBuf
	opt := serve.Options{
		Workers:   2,
		Spans:     obs.NewSpanTracer(&spanLog, 256),
		Logger:    slog.New(slog.NewJSONHandler(&logBuf, nil)),
		SlowPoint: time.Nanosecond, // every real simulation is "slow"
	}
	_, ts := newTestServer(t, opt)

	code, body := postSweep(t, ts.URL, quickReq())
	if code != http.StatusOK {
		t.Fatalf("sweep returned %d: %s", code, body)
	}
	resp := decodeSweep(t, body)
	if resp.TraceID == "" {
		t.Fatal("traced sweep response carries no trace ID")
	}

	// The trace exports as Chrome trace-event JSON with the request tree.
	tr, err := http.Get(ts.URL + "/trace/" + resp.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	traceBody, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %d: %s", tr.StatusCode, traceBody)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBody, &doc); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, traceBody)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			seen[ev.Name] = true
		}
	}
	for _, want := range []string{"sweep", "admission-wait", "cache-lookup",
		"await-points", "point", "queue-wait", "simulate"} {
		if !seen[want] {
			t.Errorf("trace missing %q span; saw %v", want, seen)
		}
	}

	// Unknown traces 404.
	tr, err = http.Get(ts.URL + "/trace/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if tr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace returned %d, want 404", tr.StatusCode)
	}

	// Every finished span is one JSON line in the sink.
	lines := strings.Split(strings.TrimSpace(spanLog.String()), "\n")
	if len(lines) < 7 {
		t.Fatalf("span sink has %d lines, want >= 7:\n%s", len(lines), spanLog.String())
	}
	for _, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("span sink line not JSON: %v: %s", err, ln)
		}
	}

	// Structured logs: startup, the served request (tagged with the trace
	// ID), and the slow-point warnings.
	logs := logBuf.String()
	for _, want := range []string{
		"sweep service started", "sweep served", "slow design point",
		resp.TraceID,
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %q:\n%s", want, logs)
		}
	}
	for _, ln := range strings.Split(strings.TrimSpace(logs), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("log line not JSON: %v: %s", err, ln)
		}
	}
}

// TestUntracedSweepHasNoTraceID pins the zero-cost-off contract at the API
// boundary: without Options.Spans the response carries no trace ID, no
// X-Trace-Id header appears, and /trace/{id} is a 404.
func TestUntracedSweepHasNoTraceID(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	body, err := json.Marshal(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep returned %d: %s", resp.StatusCode, out)
	}
	if h := resp.Header.Get("X-Trace-Id"); h != "" {
		t.Errorf("untraced sweep set X-Trace-Id %q", h)
	}
	if sr := decodeSweep(t, out); sr.TraceID != "" {
		t.Errorf("untraced sweep response has trace ID %q", sr.TraceID)
	}
	tr, err := http.Get(ts.URL + "/trace/anything")
	if err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if tr.StatusCode != http.StatusNotFound {
		t.Errorf("trace endpoint without tracer returned %d, want 404", tr.StatusCode)
	}
}
