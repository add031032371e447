package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/serve"
	"gem5aladdin/internal/store"
)

// searchReq is a search job over a fully-enumerable 900-point DMA space:
// big enough that a budgeted search runs several rounds, cheap enough for
// tests (the same space the dse-level search tests pin).
func searchReq(budget, init, round int) serve.SweepRequest {
	return serve.SweepRequest{
		Kernel: "spmv-crs",
		Mem:    "dma",
		Search: &serve.SearchSpec{
			Seed:   7,
			Budget: budget,
			Init:   init,
			Round:  round,
			Axes: []dse.SearchAxis{
				{Name: "lanes", Values: []int{1, 2, 4, 8, 16}},
				{Name: "partitions", Values: []int{1, 2, 4, 8, 16}},
				{Name: "spad_ports", Values: []int{1, 2, 4}},
				{Name: "pipelined_dma", Values: []int{0, 1}},
				{Name: "dma_triggered", Values: []int{0, 1}},
				{Name: "dma_chunk", Values: []int{1024, 4096, 16384}},
			},
		},
	}
}

// searchLine mirrors one NDJSON line of a search job's result stream.
type searchLine struct {
	Status    string `json:"status"`
	Round     int    `json:"round"`
	Evaluated int    `json:"evaluated"`
	FrontSize int    `json:"front_size"`
	Front     []struct {
		Point     map[string]int `json:"point"`
		RuntimeUS float64        `json:"runtime_us"`
		PowerMW   float64        `json:"power_mw"`
		EDPnJs    float64        `json:"edp_njs"`
	} `json:"front"`

	Kind        string          `json:"kind,omitempty"`
	SpacePoints uint64          `json:"space_points,omitempty"`
	Rounds      int             `json:"rounds,omitempty"`
	Converged   bool            `json:"converged,omitempty"`
	EDPOptimal  *report.Record  `json:"edp_optimal,omitempty"`
	Pareto      []report.Record `json:"pareto,omitempty"`
}

// streamSearch reads a search job's full NDJSON stream: round lines and the
// terminating summary.
func streamSearch(t *testing.T, url, id string) (raw []byte, rounds []searchLine, summary searchLine) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	raw = buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search results: %d: %s", resp.StatusCode, raw)
	}
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var l searchLine
		if err := json.Unmarshal([]byte(ln), &l); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, ln)
		}
		rounds = append(rounds, l)
	}
	if len(rounds) == 0 {
		t.Fatal("empty search stream")
	}
	summary = rounds[len(rounds)-1]
	if summary.Status != "summary" || summary.Kind != "search" {
		t.Fatalf("stream did not end with a search summary: %+v", summary)
	}
	return raw, rounds[:len(rounds)-1], summary
}

// TestSearchJobSubmitPollStream drives the search job kind end to end:
// submit, poll (budget-denominated progress plus round/front fields), stream
// the round lines and summary, and check the clamp on the server budget cap.
func TestSearchJobSubmitPollStream(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2, MaxSearchBudget: 48})
	req := searchReq(0, 16, 8) // unset budget: clamps to MaxSearchBudget
	id := submitJob(t, ts.URL, req)

	st := waitJob(t, ts.URL, id)
	if st.State != "completed" {
		t.Fatalf("search job state %q (error %q), want completed", st.State, st.Error)
	}
	if st.Kind != "search" {
		t.Fatalf("job kind %q, want search", st.Kind)
	}
	if st.Points != 48 {
		t.Fatalf("budget not clamped to MaxSearchBudget: points=%d", st.Points)
	}
	if st.Completed != 48 || st.Pending != 0 {
		t.Fatalf("search progress off: %+v", st)
	}
	if st.Round < 2 || st.FrontSize == 0 {
		t.Fatalf("missing adaptive progress fields: %+v", st)
	}
	if st.Simulated == 0 || st.Simulated > st.Completed {
		t.Fatalf("simulated count off: %+v", st)
	}

	_, rounds, sum := streamSearch(t, ts.URL, id)
	if len(rounds) != st.Round {
		t.Fatalf("streamed %d round lines, status says %d rounds", len(rounds), st.Round)
	}
	prev := 0
	for i, r := range rounds {
		if r.Status != "round" || r.Round != i {
			t.Fatalf("round line %d malformed: %+v", i, r)
		}
		if r.Evaluated <= prev || r.FrontSize != len(r.Front) || r.FrontSize == 0 {
			t.Fatalf("round line %d counts off: %+v", i, r)
		}
		prev = r.Evaluated
		for _, f := range r.Front {
			if len(f.Point) != 6 || f.RuntimeUS <= 0 || f.PowerMW <= 0 {
				t.Fatalf("front member malformed: %+v", f)
			}
		}
	}
	if sum.Evaluated != 48 || sum.SpacePoints != 900 || sum.Rounds != st.Round {
		t.Fatalf("summary counts off: %+v", sum)
	}
	if len(sum.Pareto) == 0 || sum.EDPOptimal == nil {
		t.Fatalf("summary missing front or optimum: %+v", sum)
	}

	// The EDP optimum lies on the streamed front (EDP = power x runtime^2,
	// so optimizing the front finds it).
	onFront := false
	for _, rec := range sum.Pareto {
		if rec == *sum.EDPOptimal {
			onFront = true
		}
	}
	if !onFront {
		t.Fatal("EDP optimum not on the Pareto front")
	}
}

// TestSearchRejectedOnSweepEndpoint pins the synchronous-API boundary:
// search requests only run as jobs.
func TestSearchRejectedOnSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	code, body := postSweep(t, ts.URL, searchReq(16, 8, 4))
	if code != http.StatusBadRequest {
		t.Fatalf("POST /sweep with search spec: status %d: %s", code, body)
	}
}

// TestSearchJobStreamsByteIdentical submits the same search twice on one
// durable server: the second job replays every point from the store (and
// starts a fresh frontier under its own job ID) yet must stream exactly the
// same bytes — the determinism the kill-and-restart test builds on.
func TestSearchJobStreamsByteIdentical(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "results"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, ts := newTestServer(t, serve.Options{Workers: 2, Store: st})
	req := searchReq(48, 16, 8)

	idA := submitJob(t, ts.URL, req)
	if got := waitJob(t, ts.URL, idA); got.State != "completed" {
		t.Fatalf("first search %q (error %q)", got.State, got.Error)
	}
	rawA, _, _ := streamSearch(t, ts.URL, idA)

	before := srv.Snapshot().PointsSimulated
	idB := submitJob(t, ts.URL, req)
	if got := waitJob(t, ts.URL, idB); got.State != "completed" {
		t.Fatalf("second search %q (error %q)", got.State, got.Error)
	}
	rawB, _, _ := streamSearch(t, ts.URL, idB)
	if !bytes.Equal(rawA, rawB) {
		t.Fatal("replayed search streamed different bytes")
	}
	if sim := srv.Snapshot().PointsSimulated - before; sim != 0 {
		t.Fatalf("replayed search re-simulated %d points", sim)
	}
	// Terminal searches drop their frontier checkpoints.
	for _, id := range []string{idA, idB} {
		if _, ok, _ := st.Get("search/" + id); ok {
			t.Fatalf("checkpoint for terminal job %s not dropped", id)
		}
	}
}

// TestSearchJobResumeAfterShutdown is the in-process frontier-resume
// contract: a search interrupted mid-run by Shutdown leaves its manifest
// "running" and its frontier checkpoint in the store; the next server over
// the same store resumes it under the original job ID and streams exactly
// what an uninterrupted server streams.
func TestSearchJobResumeAfterShutdown(t *testing.T) {
	req := searchReq(96, 16, 8)

	// Uninterrupted reference on its own store.
	refStore, err := store.Open(filepath.Join(t.TempDir(), "ref"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close()
	_, tsRef := newTestServer(t, serve.Options{Workers: 2, Store: refStore})
	refID := submitJob(t, tsRef.URL, req)
	if got := waitJob(t, tsRef.URL, refID); got.State != "completed" {
		t.Fatalf("reference search %q (error %q)", got.State, got.Error)
	}
	refRaw, _, _ := streamSearch(t, tsRef.URL, refID)

	// Server A: single worker so the search is reliably mid-flight when the
	// round-2 poll triggers Shutdown.
	dir := filepath.Join(t.TempDir(), "results")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := serve.New(serve.Options{Workers: 1, Store: st})
	tsA := httptest.NewServer(a.Handler())
	id := submitJob(t, tsA.URL, req)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := getJob(t, tsA.URL, id); st.Round >= 2 && st.State == "running" {
			break
		} else if st.State != "running" {
			t.Fatalf("search finished before the interrupt: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("search never reached round 2")
		}
		time.Sleep(2 * time.Millisecond)
	}
	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown A: %v", err)
	}
	cancel()

	// The frontier checkpoint and the "running" manifest are the resume
	// signals left behind.
	if _, ok, _ := st.Get("search/" + id); !ok {
		t.Fatal("interrupted search left no frontier checkpoint")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b, tsB := newTestServer(t, serve.Options{Workers: 2, Store: st2})
	got := waitJob(t, tsB.URL, id)
	if got.State != "completed" {
		t.Fatalf("resumed search %q (error %q)", got.State, got.Error)
	}
	if !got.Resumed || got.Kind != "search" {
		t.Fatalf("resumed search status off: %+v", got)
	}
	if snap := b.Snapshot(); snap.JobsResumed != 1 {
		t.Fatalf("JobsResumed = %d, want 1", snap.JobsResumed)
	}
	// The resumed run replays the interrupted run's work from the store:
	// it must re-simulate strictly less than it evaluates.
	if got.Simulated >= got.Completed {
		t.Fatalf("resume re-simulated everything: %+v", got)
	}
	raw, _, _ := streamSearch(t, tsB.URL, id)
	if !bytes.Equal(raw, refRaw) {
		t.Fatalf("resumed stream differs from uninterrupted reference:\n--- resumed\n%s\n--- reference\n%s", raw, refRaw)
	}
	if _, ok, _ := st2.Get("search/" + id); ok {
		t.Fatal("completed search left its checkpoint behind")
	}
}

// TestSearchJobCancel: DELETE on a running search is terminal — state
// "cancelled", checkpoint dropped, no resume on a later boot.
func TestSearchJobCancel(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "results"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, serve.Options{Workers: 1, Store: st})
	id := submitJob(t, ts.URL, searchReq(96, 16, 8))

	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := getJob(t, ts.URL, id); st.Round >= 1 && st.State == "running" {
			break
		} else if st.State != "running" {
			t.Fatalf("search finished before the cancel: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("search never reached round 1")
		}
		time.Sleep(2 * time.Millisecond)
	}
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := waitJob(t, ts.URL, id)
	if got.State != "cancelled" {
		t.Fatalf("cancelled search state %q", got.State)
	}
	if _, ok, _ := st.Get("search/" + id); ok {
		t.Fatal("cancelled search left its checkpoint behind")
	}
	if data, ok, _ := st.Get("job/" + id); ok {
		var m struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		if m.State != "cancelled" {
			t.Fatalf("cancelled manifest state %q", m.State)
		}
	}
}

// TestSearchJobSharesSweepCache pins that search jobs evaluate on the
// server's one evaluator: a search over exactly the grid a /sweep already
// simulated replays every point from the memory cache — no store involved —
// so the server simulates each point once across both.
func TestSearchJobSharesSweepCache(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 2})
	grid := quickReq()
	if code, body := postSweep(t, ts.URL, grid); code != http.StatusOK {
		t.Fatalf("sweep: %d: %s", code, body)
	}
	req := serve.SweepRequest{
		Kernel: grid.Kernel,
		Mem:    grid.Mem,
		Search: &serve.SearchSpec{Seed: 3, Budget: 4, Axes: []dse.SearchAxis{
			{Name: "lanes", Values: grid.Lanes},
			{Name: "partitions", Values: grid.Partitions},
		}},
	}
	id := submitJob(t, ts.URL, req)
	if st := waitJob(t, ts.URL, id); st.State != "completed" || st.Completed != 4 {
		t.Fatalf("search job %+v, want completed over all 4 grid points", st)
	}
	if sim := s.Snapshot().PointsSimulated; sim != 4 {
		t.Fatalf("PointsSimulated = %d across the sweep and the search of its grid, want 4", sim)
	}
}

// malformedSearch is a ~2 KB search request whose 64 binary "lanes" axes
// repeat one name and wrap the space's uint64 size to zero.
func malformedSearch() serve.SweepRequest {
	axes := make([]dse.SearchAxis, 64)
	for i := range axes {
		axes[i] = dse.SearchAxis{Name: "lanes", Values: []int{1, 2}}
	}
	return serve.SweepRequest{Kernel: "spmv-crs", Mem: "dma",
		Search: &serve.SearchSpec{Seed: 1, Budget: 8, Axes: axes}}
}

// TestSearchJobRejectsMalformedSpace: a search space Validate rejects is a
// client error at submission, never a job that runs (and panics).
func TestSearchJobRejectsMalformedSpace(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	body, err := json.Marshal(malformedSearch())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /jobs with 64 repeated axes: status %d, want 400", resp.StatusCode)
	}
}

// TestResumeFailsMalformedSearchManifest boots a server over a store that
// already holds a "running" manifest for a malformed search — as a server
// that accepted one before Validate rejected it would leave behind. The
// boot must fail the job durably instead of resuming it into a panic.
func TestResumeFailsMalformedSearchManifest(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "results"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const id = "0123456789abcdef"
	manifest, err := json.Marshal(map[string]any{
		"id": id, "state": "running", "created": time.Now(), "request": malformedSearch(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("job/"+id, manifest); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, serve.Options{Workers: 1, Store: st})
	if got := getJob(t, ts.URL, id); got.State != "failed" || got.Error == "" {
		t.Fatalf("malformed manifest booted as %+v, want failed with an error", got)
	}
	if snap := s.Snapshot(); snap.JobsResumed != 0 || snap.JobsFailed != 1 {
		t.Fatalf("resumed %d / failed %d jobs, want 0 / 1", snap.JobsResumed, snap.JobsFailed)
	}
	data, ok, err := st.Get("job/" + id)
	if err != nil || !ok {
		t.Fatalf("manifest missing: ok=%v err=%v", ok, err)
	}
	var m struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(data, &m); err != nil || m.State != "failed" {
		t.Fatalf("durable manifest state %q (%v), want failed", m.State, err)
	}
}
