package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/serve"
	"gem5aladdin/internal/store"
	"gem5aladdin/internal/trace"
)

// TestJobLimitUnderConcurrentSubmits fires 16 simultaneous POST /jobs at a
// MaxJobs=1 server whose kernel build is held open, so the first job
// accepted is still running when the others arrive. Exactly one may be
// accepted; the others are turned away with 429 and a Retry-After hint. The
// store makes each acceptance slower, which widens any window between
// checking the limit and counting the new job; each of five rounds runs on
// a fresh server.
func TestJobLimitUnderConcurrentSubmits(t *testing.T) {
	body, err := json.Marshal(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		s := serve.New(serve.Options{
			Workers: 1,
			MaxJobs: 1,
			Store:   st,
			BuildKernel: func(name string) (*trace.Trace, error) {
				<-gate
				return machsuite.MustBuild(name), nil
			},
		})

		const n = 16
		recs := make([]*httptest.ResponseRecorder, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range recs {
			recs[i] = httptest.NewRecorder()
			wg.Add(1)
			go func(rec *httptest.ResponseRecorder) {
				defer wg.Done()
				<-start
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
			}(recs[i])
		}
		close(start)
		wg.Wait()

		accepted := 0
		for i, rec := range recs {
			switch rec.Code {
			case http.StatusAccepted:
				accepted++
			case http.StatusTooManyRequests:
				if rec.Header().Get("Retry-After") == "" {
					t.Errorf("round %d, submission %d: 429 without Retry-After", round, i)
				}
			default:
				t.Errorf("round %d, submission %d: status %d: %s", round, i, rec.Code, rec.Body)
			}
		}
		if accepted != 1 {
			t.Errorf("round %d: %d of %d simultaneous submissions accepted under MaxJobs=1, want 1", round, accepted, n)
		}
		if snap := s.Snapshot(); snap.JobsSubmitted != 1 || snap.ActiveJobs != 1 {
			t.Errorf("round %d: submitted %d jobs, %d active; want 1 and 1", round, snap.JobsSubmitted, snap.ActiveJobs)
		}

		close(gate) // the shutdown waits for the job
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: shutdown: %v", round, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJobSubmitRacingShutdown submits a grid at the maxGridPoints bound
// (65,536 DMA points, whose walk takes milliseconds) and shuts the server
// down after a delay. Whichever wins, no job outlives Shutdown: once
// Shutdown has returned nil and the submission has been answered, no job is
// active, and the answer is a 503 or a 202 whose job was interrupted (still
// "running", to resume on a restart, but no longer active).
func TestJobSubmitRacingShutdown(t *testing.T) {
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
	for _, delay := range []time.Duration{0, 100 * time.Microsecond, 300 * time.Microsecond,
		time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond} {
		s := serve.New(serve.Options{Workers: 1})
		rec := httptest.NewRecorder()
		answered := make(chan struct{})
		go func() {
			defer close(answered)
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		}()
		time.Sleep(delay)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("delay %v: shutdown: %v", delay, err)
		}
		<-answered
		if n := s.Snapshot().ActiveJobs; n != 0 {
			t.Errorf("delay %v: %d jobs active after Shutdown returned (submission answered %d)", delay, n, rec.Code)
		}
		switch rec.Code {
		case http.StatusServiceUnavailable:
		case http.StatusAccepted:
			var ack struct {
				JobID string `json:"job_id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatalf("delay %v: job ack: %v", delay, err)
			}
			st := httptest.NewRecorder()
			s.Handler().ServeHTTP(st, httptest.NewRequest(http.MethodGet, "/jobs/"+ack.JobID, nil))
			var status struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal(st.Body.Bytes(), &status); err != nil || status.State != "running" {
				t.Errorf("delay %v: accepted job is %q (%v), want interrupted while running", delay, status.State, err)
			}
		default:
			t.Errorf("delay %v: status %d, want 503 or 202: %s", delay, rec.Code, rec.Body)
		}
	}
}
