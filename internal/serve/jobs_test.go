package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/serve"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/store"
	"gem5aladdin/internal/trace"
)

// jobStatus mirrors the GET /jobs/{id} reply for decoding in tests.
type jobStatus struct {
	JobID     string `json:"job_id"`
	Kernel    string `json:"kernel"`
	State     string `json:"state"`
	Error     string `json:"error,omitempty"`
	Resumed   bool   `json:"resumed,omitempty"`
	Points    int    `json:"points"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Pending   int    `json:"pending"`

	Kind      string `json:"kind,omitempty"`
	Round     int    `json:"round,omitempty"`
	FrontSize int    `json:"front_size,omitempty"`
	Simulated int    `json:"simulated,omitempty"`
}

// jobLine mirrors one NDJSON line of GET /jobs/{id}/results. Summary lines
// reuse the struct with the summary-only fields populated.
type jobLine struct {
	Index    int            `json:"index"`
	Status   string         `json:"status"`
	Record   *report.Record `json:"record,omitempty"`
	Kind     string         `json:"kind,omitempty"`
	Error    string         `json:"error,omitempty"`
	Attempts int            `json:"attempts,omitempty"`

	Requested  int             `json:"requested"`
	Evaluated  int             `json:"evaluated"`
	Failed     int             `json:"failed"`
	Failures   []jobLine       `json:"failures,omitempty"`
	EDPOptimal *report.Record  `json:"edp_optimal,omitempty"`
	Pareto     []report.Record `json:"pareto"`
}

func submitJob(t *testing.T, url string, req serve.SweepRequest) string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submission: status %d: %s", resp.StatusCode, out)
	}
	var ack struct {
		JobID  string `json:"job_id"`
		State  string `json:"state"`
		Points int    `json:"points"`
	}
	if err := json.Unmarshal(out, &ack); err != nil {
		t.Fatalf("decoding job ack: %v\n%s", err, out)
	}
	if ack.JobID == "" || ack.State != "running" {
		t.Fatalf("bad job ack: %+v", ack)
	}
	return ack.JobID
}

func getJob(t *testing.T, url, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job status: %d: %s", resp.StatusCode, out)
	}
	var st jobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("decoding job status: %v\n%s", err, out)
	}
	return st
}

// waitJob polls until the job leaves "running" (or the deadline passes) and
// returns the terminal status.
func waitJob(t *testing.T, url, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getJob(t, url, id)
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 30s: %+v", id, st.State, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// streamJob reads the full NDJSON result stream: the per-point lines in
// request order and the terminating summary line.
func streamJob(t *testing.T, url, id string) (raw []byte, lines []jobLine, summary jobLine) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job results: %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}
	split := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(split) == 0 {
		t.Fatalf("empty result stream")
	}
	for _, ln := range split {
		var l jobLine
		if err := json.Unmarshal([]byte(ln), &l); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, ln)
		}
		lines = append(lines, l)
	}
	summary = lines[len(lines)-1]
	if summary.Status != "summary" {
		t.Fatalf("stream did not end with a summary line: %+v", summary)
	}
	return raw, lines[:len(lines)-1], summary
}

// TestJobSubmitPollStream drives the happy path end to end: submit, poll to
// completion, stream the results, and demand the stream carry exactly the
// records a direct dse.Sweep produces.
func TestJobSubmitPollStream(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	req := quickReq()
	id := submitJob(t, ts.URL, req)

	st := waitJob(t, ts.URL, id)
	if st.State != "completed" {
		t.Fatalf("job state %q (error %q), want completed", st.State, st.Error)
	}
	if st.Points != 4 || st.Completed != 4 || st.Failed != 0 || st.Pending != 0 {
		t.Fatalf("job progress off: %+v", st)
	}

	_, lines, sum := streamJob(t, ts.URL, id)
	if len(lines) != 4 {
		t.Fatalf("got %d point lines, want 4", len(lines))
	}
	space, pareto, edp := directSweep(t, req)
	for i, l := range lines {
		if l.Index != i || l.Status != "ok" || l.Record == nil {
			t.Fatalf("line %d malformed: %+v", i, l)
		}
		if !reflect.DeepEqual(*l.Record, space[i]) {
			t.Fatalf("line %d record diverges from direct sweep", i)
		}
	}
	if sum.Requested != 4 || sum.Evaluated != 4 || sum.Failed != 0 {
		t.Fatalf("summary counts off: %+v", sum)
	}
	if !reflect.DeepEqual(sum.Pareto, pareto) {
		t.Fatalf("summary Pareto diverges from direct sweep")
	}
	if !reflect.DeepEqual(sum.EDPOptimal, edp) {
		t.Fatalf("summary EDP optimum diverges from direct sweep")
	}
}

// TestJobStreamsByteIdentical pins the stream's determinism contract: the
// same request streamed twice — once simulated cold, once replayed from the
// in-memory cache — yields byte-identical NDJSON. This is the property the
// kill-and-restart test leans on to prove a resumed job lost nothing.
func TestJobStreamsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	req := quickReq()

	idA := submitJob(t, ts.URL, req)
	waitJob(t, ts.URL, idA)
	rawA, _, _ := streamJob(t, ts.URL, idA)

	idB := submitJob(t, ts.URL, req)
	waitJob(t, ts.URL, idB)
	rawB, _, _ := streamJob(t, ts.URL, idB)

	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("cold and cached streams differ:\n--- cold ---\n%s\n--- cached ---\n%s", rawA, rawB)
	}
}

// mixedFaultReq is a cache-mode grid under seeded bus-NACK fault injection
// tuned (deterministically — the fault streams are seeded) so that exactly
// one design point loses a miss transaction to a bus drop and stalls while
// the other five complete. The stall is caught by the server's no-progress
// point budget, not by a config watchdog: the request leaves WatchdogTicks
// zero, so this grid also covers the Options.PointBudget wiring.
func mixedFaultReq() serve.SweepRequest {
	return serve.SweepRequest{
		Kernel:     "spmv-crs",
		Mem:        "cache",
		Lanes:      []int{1},
		CacheKB:    []int{2, 4, 8, 16, 32, 64},
		CacheLines: []int{32},
		CachePorts: []int{1},
		CacheAssoc: []int{2},
		Faults: &serve.FaultSpec{
			Seed:          7,
			BusNackProb:   0.3,
			BusRetryLimit: 6,
			BusBackoffNS:  10,
		},
	}
}

// TestJobFailureIsolation is the acceptance criterion for per-point failure
// isolation: a stalled point fails alone, classified and enumerated, and the
// job still completes with a Pareto front over the five survivors.
func TestJobFailureIsolation(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{
		Workers:     2,
		PointBudget: sim.Tick(1e9), // 1 ms of virtual time: only a true stall trips it
	})
	id := submitJob(t, ts.URL, mixedFaultReq())

	st := waitJob(t, ts.URL, id)
	if st.State != "completed" {
		t.Fatalf("job state %q (error %q), want completed despite the stalled point", st.State, st.Error)
	}
	if st.Points != 6 || st.Completed != 5 || st.Failed != 1 {
		t.Fatalf("job progress off: %+v", st)
	}

	_, lines, sum := streamJob(t, ts.URL, id)
	var stalled []jobLine
	for _, l := range lines {
		switch l.Status {
		case "ok":
			if l.Record == nil {
				t.Fatalf("ok line without a record: %+v", l)
			}
		case "failed":
			stalled = append(stalled, l)
		default:
			t.Fatalf("unexpected line status %q", l.Status)
		}
	}
	if len(stalled) != 1 {
		t.Fatalf("got %d failed lines, want 1", len(stalled))
	}
	f := stalled[0]
	if f.Kind != "stall" {
		t.Fatalf("failure kind %q, want stall", f.Kind)
	}
	if f.Attempts != 1 {
		t.Fatalf("stall retried %d times; stalls are deterministic and must not retry", f.Attempts-1)
	}
	if !strings.Contains(f.Error, "aborted") {
		t.Fatalf("failure error %q does not mention the abort", f.Error)
	}
	if sum.Evaluated != 5 || sum.Failed != 1 || len(sum.Failures) != 1 {
		t.Fatalf("summary counts off: %+v", sum)
	}
	if len(sum.Pareto) == 0 || sum.EDPOptimal == nil {
		t.Fatalf("summary lost the surviving points' front: %+v", sum)
	}
	if snap := s.Snapshot(); snap.PointsAborted != 1 {
		t.Fatalf("PointsAborted = %d, want 1", snap.PointsAborted)
	}
}

// TestJobFaultRetryExhaustion pins the retry policy end to end: a DMA grid
// whose descriptors always time out aborts every point as kind "fault" after
// exactly 1 + MaxPointRetries attempts, and the retry counter adds up.
func TestJobFaultRetryExhaustion(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{
		Workers:           2,
		MaxPointRetries:   2,
		PointRetryBackoff: time.Microsecond,
	})
	req := serve.SweepRequest{
		Kernel:     "spmv-crs",
		Mem:        "dma",
		Lanes:      []int{1, 2},
		Partitions: []int{1, 2},
		Faults: &serve.FaultSpec{
			Seed:         1,
			DMATimeoutNS: 1, // far below any descriptor's transfer time
			DMARetries:   0,
		},
	}
	id := submitJob(t, ts.URL, req)

	st := waitJob(t, ts.URL, id)
	if st.State != "completed" {
		t.Fatalf("job state %q, want completed (failures are per-point, not per-job)", st.State)
	}
	if st.Completed != 0 || st.Failed != 4 {
		t.Fatalf("job progress off: %+v", st)
	}

	_, lines, sum := streamJob(t, ts.URL, id)
	for _, l := range lines {
		if l.Status != "failed" || l.Kind != "fault" {
			t.Fatalf("expected a fault failure, got %+v", l)
		}
		if l.Attempts != 3 {
			t.Fatalf("point attempted %d times, want 3 (1 + 2 retries)", l.Attempts)
		}
	}
	if sum.Evaluated != 0 || sum.Failed != 4 {
		t.Fatalf("summary counts off: %+v", sum)
	}
	if sum.EDPOptimal != nil || len(sum.Pareto) != 0 {
		t.Fatalf("empty space grew a front: %+v", sum)
	}
	if snap := s.Snapshot(); snap.PointRetries != 8 {
		t.Fatalf("PointRetries = %d, want 8 (4 points x 2 retries)", snap.PointRetries)
	}
}

// TestJobCancel covers the client-initiated cancel path: DELETE while the
// job is gated pre-kernel must land it in the terminal "cancelled" state —
// durably, so a restart does NOT resume it.
func TestJobCancel(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "results"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	gate := make(chan struct{})
	s, ts := newTestServer(t, serve.Options{
		Workers: 1,
		Store:   st,
		BuildKernel: func(name string) (*trace.Trace, error) {
			<-gate
			return machsuite.MustBuild(name), nil
		},
	})
	id := submitJob(t, ts.URL, quickReq())

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	delDone := make(chan *http.Response, 1)
	go func() {
		resp, derr := http.DefaultClient.Do(delReq)
		if derr == nil {
			delDone <- resp
		} else {
			close(delDone)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the DELETE cancel the gated job
	close(gate)

	resp, ok := <-delDone
	if !ok {
		t.Fatal("DELETE failed")
	}
	defer resp.Body.Close()
	var final jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	if final.State != "cancelled" {
		t.Fatalf("job state after DELETE = %q, want cancelled", final.State)
	}
	if snap := s.Snapshot(); snap.JobsCancelled != 1 {
		t.Fatalf("JobsCancelled = %d, want 1", snap.JobsCancelled)
	}

	// The manifest must be terminal on disk: a restarted server leaves it.
	data, ok2, err := st.Get("job/" + id)
	if err != nil || !ok2 {
		t.Fatalf("manifest missing after cancel: ok=%v err=%v", ok2, err)
	}
	var m struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.State != "cancelled" {
		t.Fatalf("durable manifest state %q, want cancelled", m.State)
	}
}

// TestWarmStartAcrossRestart is the durable-cache contract: a second server
// opened over the first server's store answers the same sweep from disk —
// zero new simulations, bit-identical records.
func TestWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "results"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	req := quickReq()

	a := serve.New(serve.Options{Workers: 2, Store: st})
	tsA := httptest.NewServer(a.Handler())
	code, body := postSweep(t, tsA.URL, req)
	if code != http.StatusOK {
		t.Fatalf("cold sweep: %d: %s", code, body)
	}
	respA := decodeSweep(t, body)
	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown A: %v", err)
	}

	b, tsB := newTestServer(t, serve.Options{Workers: 2, Store: st})
	code, body = postSweep(t, tsB.URL, req)
	if code != http.StatusOK {
		t.Fatalf("warm sweep: %d: %s", code, body)
	}
	respB := decodeSweep(t, body)

	snap := b.Snapshot()
	if snap.PointsSimulated != 0 {
		t.Fatalf("restarted server re-simulated %d points", snap.PointsSimulated)
	}
	if snap.WarmHits != 4 {
		t.Fatalf("WarmHits = %d, want 4", snap.WarmHits)
	}
	if respB.CachedPoints != 4 {
		t.Fatalf("CachedPoints = %d, want 4", respB.CachedPoints)
	}
	if !reflect.DeepEqual(respA.Space, respB.Space) ||
		!reflect.DeepEqual(respA.Pareto, respB.Pareto) ||
		!reflect.DeepEqual(respA.EDPOptimal, respB.EDPOptimal) {
		t.Fatalf("warm-start records diverge from the original run")
	}
}

// TestOutcomelessRecordResimulates seeds one point of a grid with a stored
// record holding neither a result nor an abort — a schema-1 JSON record and
// an empty binary one. Each must read as a miss: the job over the grid
// completes with no failure, the point simulates, and a sweep counts no
// aborted point. Replaying such a record as an outcome used to crash the
// server in the job streamer.
func TestOutcomelessRecordResimulates(t *testing.T) {
	empty := dse.EncodePoint(&dse.CachedPoint{})
	for name, rec := range map[string][]byte{"json": []byte(`{"schema":1}`), "binary": empty} {
		t.Run(name, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			req := quickReq()
			cfgs, err := req.Configs()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(dse.PointKey(req.Kernel, cfgs[0]), rec); err != nil {
				t.Fatal(err)
			}
			s, ts := newTestServer(t, serve.Options{Workers: 2, Store: st})

			id := submitJob(t, ts.URL, req)
			if got := waitJob(t, ts.URL, id); got.State != "completed" || got.Failed != 0 || got.Completed != len(cfgs) {
				t.Fatalf("job over the seeded grid: %+v", got)
			}
			if sim := s.Snapshot().PointsSimulated; sim != uint64(len(cfgs)) {
				t.Fatalf("simulated %d points, want %d (the seeded one included)", sim, len(cfgs))
			}
			code, body := postSweep(t, ts.URL, req)
			if code != http.StatusOK {
				t.Fatalf("sweep: %d: %s", code, body)
			}
			if resp := decodeSweep(t, body); resp.AbortedPoints != 0 || resp.EvaluatedPoints != len(cfgs) {
				t.Fatalf("sweep over the seeded grid: %d aborted, %d evaluated", resp.AbortedPoints, resp.EvaluatedPoints)
			}
		})
	}
}

// TestJobResumeAfterShutdown is the in-process resume contract: a job
// interrupted by Shutdown leaves its manifest "running", and the next server
// over the same store resumes it under the original ID and finishes it with
// results identical to an uninterrupted run.
func TestJobResumeAfterShutdown(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "results"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	req := quickReq()

	// Server A: the kernel build is gated so the job is deterministically
	// still running when Shutdown interrupts it.
	gate := make(chan struct{})
	a := serve.New(serve.Options{
		Workers: 1,
		Store:   st,
		BuildKernel: func(name string) (*trace.Trace, error) {
			<-gate
			return machsuite.MustBuild(name), nil
		},
	})
	tsA := httptest.NewServer(a.Handler())
	id := submitJob(t, tsA.URL, req)
	tsA.Close()

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shut <- a.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown cancel the gated job
	close(gate)
	if err := <-shut; err != nil {
		t.Fatalf("shutdown A: %v", err)
	}

	// The manifest must still say "running": that is the resume signal.
	data, ok, err := st.Get("job/" + id)
	if err != nil || !ok {
		t.Fatalf("manifest missing after interrupt: ok=%v err=%v", ok, err)
	}
	var m struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.State != "running" {
		t.Fatalf("interrupted manifest state %q, want running", m.State)
	}

	// Server B resumes it at boot under the original ID.
	b, tsB := newTestServer(t, serve.Options{Workers: 2, Store: st})
	st2 := waitJob(t, tsB.URL, id)
	if st2.State != "completed" {
		t.Fatalf("resumed job state %q (error %q), want completed", st2.State, st2.Error)
	}
	if !st2.Resumed {
		t.Fatalf("job not marked resumed: %+v", st2)
	}
	if snap := b.Snapshot(); snap.JobsResumed != 1 {
		t.Fatalf("JobsResumed = %d, want 1", snap.JobsResumed)
	}

	_, lines, sum := streamJob(t, tsB.URL, id)
	space, pareto, edp := directSweep(t, req)
	if len(lines) != len(space) {
		t.Fatalf("resumed job streamed %d points, want %d", len(lines), len(space))
	}
	for i, l := range lines {
		if l.Status != "ok" || !reflect.DeepEqual(*l.Record, space[i]) {
			t.Fatalf("resumed line %d diverges from direct sweep: %+v", i, l)
		}
	}
	if !reflect.DeepEqual(sum.Pareto, pareto) || !reflect.DeepEqual(sum.EDPOptimal, edp) {
		t.Fatalf("resumed summary diverges from direct sweep")
	}
}

// TestCancelledLeaderDoesNotFailJoiners is the singleflight regression test:
// a leader that creates and queues design points, then times out and walks
// away, must not poison a joiner waiting on the same points. The joiner gets
// the full correct response, and every unique point is simulated exactly
// once — whether it was handed from the leader's entries or re-created after
// an abandonment.
func TestCancelledLeaderDoesNotFailJoiners(t *testing.T) {
	// The kernel build is gated so the interleaving is deterministic: the
	// leader enters first and burns its 1 ms deadline at the gate; the
	// joiner piles onto the same sync.Once; releasing the gate resumes both
	// at once, so the leader's acquire-then-cancel genuinely overlaps the
	// joiner's acquire.
	gate := make(chan struct{})
	s, ts := newTestServer(t, serve.Options{
		Workers: 1,
		BuildKernel: func(name string) (*trace.Trace, error) {
			<-gate
			return machsuite.MustBuild(name), nil
		},
	})
	req := quickReq()
	req.Lanes = []int{1, 2, 4}
	req.Partitions = []int{1, 2, 4}
	leader := req
	leader.TimeoutMS = 1

	leaderDone := make(chan int, 1)
	go func() {
		code, _ := postSweep(t, ts.URL, leader)
		leaderDone <- code
	}()
	waitActive := func(n int64) {
		deadline := time.Now().Add(10 * time.Second)
		for s.Snapshot().ActiveRequests != n {
			if time.Now().After(deadline) {
				t.Fatalf("never saw %d active requests", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitActive(1)

	joinerDone := make(chan []byte, 1)
	joinerCode := make(chan int, 1)
	go func() {
		code, body := postSweep(t, ts.URL, req)
		joinerCode <- code
		joinerDone <- body
	}()
	waitActive(2)
	close(gate)

	// The joiner either joins the leader's in-flight entries or re-creates
	// any the worker already abandoned; both paths must yield a full
	// correct response, never the leader's cancellation.
	if code := <-joinerCode; code != http.StatusOK {
		t.Fatalf("joiner got %d", code)
	}
	resp := decodeSweep(t, <-joinerDone)
	space, pareto, edp := directSweep(t, req)
	if !reflect.DeepEqual(resp.Space, space) ||
		!reflect.DeepEqual(resp.Pareto, pareto) ||
		!reflect.DeepEqual(resp.EDPOptimal, edp) {
		t.Fatalf("joiner response diverges from direct sweep after leader cancellation")
	}

	if code := <-leaderDone; code != http.StatusGatewayTimeout {
		t.Fatalf("leader got %d, want 504", code)
	}

	// The grid holds exactly nine unique points; the leader's cancellation
	// must not cause re-simulation or loss, whichever handoff path ran.
	if snap := s.Snapshot(); snap.PointsSimulated != 9 {
		t.Fatalf("PointsSimulated = %d, want 9", snap.PointsSimulated)
	}
}

// TestJobAPIValidation covers the error surface: bad kernels fail the job
// terminally, unknown jobs 404, and wrong methods are rejected.
func TestJobAPIValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})

	// Unknown kernel: accepted (the build happens async) but fails.
	id := submitJob(t, ts.URL, serve.SweepRequest{Kernel: "no-such-kernel"})
	st := waitJob(t, ts.URL, id)
	if st.State != "failed" || st.Error == "" {
		t.Fatalf("bad-kernel job state %+v, want failed with an error", st)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("results of a failed job: %d, want 409", resp.StatusCode)
	}

	// Unknown job ID.
	resp, err = http.Get(ts.URL + "/jobs/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}

	// Bad grid: rejected at submission.
	body, _ := json.Marshal(serve.SweepRequest{Kernel: "spmv-crs", Mem: "bogus"})
	r, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mem kind: %d, want 400", r.StatusCode)
	}

	// Wrong method on /jobs.
	r, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /jobs: %d, want 405", r.StatusCode)
	}
}
