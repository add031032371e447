package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/soc"
)

// Job states. A job is "running" from submission until it reaches a terminal
// state; a server killed mid-job leaves the manifest "running" in the store,
// which is exactly the signal the next boot uses to resume it.
const (
	jobRunning   = "running"
	jobCompleted = "completed"
	jobFailed    = "failed"
	jobCancelled = "cancelled"
)

// jobKeyPrefix namespaces job manifests inside the result store. Point
// records are 64-char hex hashes, so the prefix can never collide.
const jobKeyPrefix = "job/"

// jobManifest is the durable record of one submitted job: enough to restart
// it from scratch on a fresh process. Per-point progress is NOT in the
// manifest — the write-through point records are the checkpoint, so a
// resumed job re-acquires its grid and finds every already-simulated point
// in the store.
type jobManifest struct {
	ID      string       `json:"id"`
	State   string       `json:"state"`
	Error   string       `json:"error,omitempty"`
	Created time.Time    `json:"created"`
	Request SweepRequest `json:"request"`
}

// job is one long-running request — a grid or an adaptive search —
// submitted via POST /jobs and evaluated on the server's shared evaluator.
// Both kinds share one lifecycle: the job goroutine publishes each NDJSON
// stream line once it is final, and GET /jobs/{id}/results tails the lines.
type job struct {
	id      string
	req     SweepRequest
	cfgs    []soc.Config // grid jobs only
	points  int          // grid size, or the clamped search budget
	created time.Time
	resumed bool

	cancel context.CancelFunc
	done   chan struct{} // closed when the job goroutine exits

	// Guarded by Server.jmu. lines are the published stream; update is
	// closed and replaced on every publish so tailing streamers wake up.
	state           string
	errMsg          string
	clientCancelled bool
	lines           [][]byte
	update          chan struct{}

	// Progress, guarded by Server.jmu: completed and failed count a grid's
	// published point lines, or a search's evaluated candidates (which
	// never fail it); round, frontSize and simulated are search-only.
	completed, failed           int
	round, frontSize, simulated int
}

// newJob builds a running job's in-memory record.
func newJob(id string, req SweepRequest, cfgs []soc.Config, points int, created time.Time) *job {
	return &job{id: id, req: req, cfgs: cfgs, points: points, created: created,
		state: jobRunning, done: make(chan struct{}), update: make(chan struct{})}
}

// newJobID returns a 16-hex-char random job identifier.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: job id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// putManifest persists the job's manifest; a nil store makes jobs
// process-local (no resume after restart).
func (s *Server) putManifest(j *job, state, errMsg string) {
	if s.opt.Store == nil {
		return
	}
	m := jobManifest{ID: j.id, State: state, Error: errMsg,
		Created: j.created, Request: j.req}
	data, err := json.Marshal(&m)
	if err != nil {
		return
	}
	if err := s.opt.Store.Put(jobKeyPrefix+j.id, data); err != nil {
		if lg := s.opt.Logger; lg != nil {
			lg.Warn("job manifest write failed", "job", j.id, "err", err.Error())
		}
	}
}

// startJob registers and launches a validated job. Holds no locks. The
// job's context is process-scoped, not request-scoped: the submitting HTTP
// request returns immediately and the job keeps running until terminal,
// cancelled, or interrupted by Shutdown.
func (s *Server) startJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	s.jmu.Lock()
	j.cancel = cancel
	s.jobs[j.id] = j
	s.jmu.Unlock()
	s.activeJobs.Add(1)
	s.wgJobs.Add(1)
	go s.runJob(ctx, j)
}

// runJob drives one job of either kind to a terminal state and checkpoints
// it. An interruption (server shutdown) leaves the manifest "running" —
// and a search's frontier checkpoint in the store — so the next boot
// resumes the job; a client cancellation is terminal.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer s.wgJobs.Done()
	defer s.activeJobs.Add(-1)
	defer close(j.done)

	err := ctx.Err() // a cancellation may have raced submission
	if err == nil {
		var k *soc.Compiled
		if k, err = s.kernelFor(j.req.Kernel); err == nil {
			if j.req.Search != nil {
				err = s.runSearch(ctx, j, k)
			} else {
				err = s.runGrid(ctx, j, k)
			}
		}
	}
	s.jmu.Lock()
	cancelled := j.clientCancelled
	s.jmu.Unlock()
	switch {
	case err == nil:
		s.finishJob(j, jobCompleted, "")
	case ctx.Err() == nil:
		s.finishJob(j, jobFailed, err.Error())
	case cancelled:
		s.finishJob(j, jobCancelled, "")
	default:
		if lg := s.opt.Logger; lg != nil {
			lg.Info("job interrupted for shutdown; will resume on restart", "job", j.id)
		}
		return
	}
	// Terminal: the frontier checkpoint (search jobs) has served its
	// purpose; the point records stay (they are content-addressed and
	// shared).
	if s.opt.Store != nil {
		_ = s.opt.Store.Delete(searchKeyPrefix + j.id)
	}
}

// runGrid evaluates a grid job and publishes one line per point in request
// order, then the summary (Pareto front and EDP optimum over the surviving
// points, failures enumerated). Points the store already holds — a resumed
// job's finished work — come back without simulating.
func (s *Server) runGrid(ctx context.Context, j *job, k *soc.Compiled) error {
	c := s.eval.Submit(ctx, j.req.Kernel, k, j.cfgs)
	// Dropping the claim lets workers skip any still-queued points.
	defer c.Release()
	space := make(dse.Space, 0, len(j.cfgs))
	var failures []jobResultLine
	for i, cfg := range j.cfgs {
		select {
		case <-c.Done(i):
		case <-ctx.Done():
			return ctx.Err()
		}
		o := c.Outcome(i)
		line := jobResultLine{Index: i, Status: "ok"}
		if o.Res != nil {
			rec := report.FromResult(j.req.Kernel, o.Res)
			line.Record = &rec
			space = append(space, dse.Point{Cfg: cfg, Res: o.Res})
		} else {
			line.Status, line.Kind, line.Error, line.Attempts = "failed", o.Kind, o.Err.Error(), o.Attempts
			failures = append(failures, line)
		}
		s.publish(j, &line, func() {
			if o.Res != nil {
				j.completed++
			} else {
				j.failed++
			}
		})
	}
	sum := jobSummaryLine{
		Status:    "summary",
		Requested: len(j.cfgs),
		Evaluated: len(space),
		Failed:    len(failures),
		Failures:  failures,
		Pareto:    spaceRecords(j.req.Kernel, space.ParetoFront()),
	}
	if best, ok := space.EDPOptimal(); ok {
		rec := report.FromResult(j.req.Kernel, best.Res)
		sum.EDPOptimal = &rec
	}
	s.publish(j, &sum, nil)
	return nil
}

// publish appends one final NDJSON line to the job's stream and wakes the
// streamers tailing it. progress, when non-nil, updates the job's progress
// counters under the same lock, so a poll never sees a count ahead of the
// stream.
func (s *Server) publish(j *job, line any, progress func()) {
	data, _ := json.Marshal(line) // plain structs of finite numbers: cannot fail
	s.jmu.Lock()
	if progress != nil {
		progress()
	}
	j.lines = append(j.lines, append(data, '\n'))
	close(j.update)
	j.update = make(chan struct{})
	s.jmu.Unlock()
}

// finishJob records a terminal state in memory, on disk, and in the stats.
func (s *Server) finishJob(j *job, state, errMsg string) {
	s.jmu.Lock()
	j.state = state
	j.errMsg = errMsg
	s.jmu.Unlock()
	s.putManifest(j, state, errMsg)
	switch state {
	case jobCompleted:
		s.jobsCompleted.Add(1)
	case jobFailed:
		s.jobsFailed.Add(1)
	case jobCancelled:
		s.jobsCancelled.Add(1)
	}
	if lg := s.opt.Logger; lg != nil {
		lg.Info("job finished", "job", j.id, "state", state,
			"kernel", j.req.Kernel, "points", j.points, "err", errMsg)
	}
}

// expandJob validates a job request and sizes it: a grid's design points,
// or a search's clamped budget (searches carry no expanded grid; their
// space is re-derived from the request when they run).
func (s *Server) expandJob(req SweepRequest) ([]soc.Config, int, error) {
	if req.Search != nil {
		if _, err := s.searchSpace(req); err != nil {
			return nil, 0, err
		}
		return nil, s.searchBudget(req.Search), nil
	}
	cfgs, err := req.Configs()
	return cfgs, len(cfgs), err
}

// resumeJobs replays the store's manifests at boot: every job left
// "running" by a previous process is resubmitted under its original ID. The
// already-simulated points come straight back from the store (and a
// search's frontier checkpoint under search/<id> restores its rounds), so
// the resumed job only simulates what the interrupted run never finished.
func (s *Server) resumeJobs() {
	if s.opt.Store == nil {
		return
	}
	for _, key := range s.opt.Store.Keys(jobKeyPrefix) {
		data, ok, err := s.opt.Store.Get(key)
		if err != nil || !ok {
			continue
		}
		var m jobManifest
		if err := json.Unmarshal(data, &m); err != nil || m.State != jobRunning {
			continue
		}
		cfgs, points, err := s.expandJob(m.Request)
		j := newJob(m.ID, m.Request, cfgs, points, m.Created)
		if err != nil {
			// The request no longer expands (schema drift, or a space a
			// newer validator rejects): fail it durably rather than
			// resurrect it forever.
			j.state, j.errMsg = jobFailed, err.Error()
			close(j.done)
			s.jmu.Lock()
			s.jobs[j.id] = j
			s.jmu.Unlock()
			s.putManifest(j, jobFailed, err.Error())
			s.jobsFailed.Add(1)
			continue
		}
		j.resumed = true
		s.jobsResumed.Add(1)
		if lg := s.opt.Logger; lg != nil {
			lg.Info("resuming interrupted job", "job", j.id,
				"kernel", j.req.Kernel, "points", points)
		}
		s.startJob(j)
	}
}

// interruptJobs cancels every running job (shutdown path). Manifests stay
// "running" so a restart resumes them.
func (s *Server) interruptJobs() {
	s.jmu.Lock()
	for _, j := range s.jobs {
		if j.state == jobRunning && j.cancel != nil {
			j.cancel()
		}
	}
	s.jmu.Unlock()
}

// --- HTTP surface ---

// jobStatus is the GET /jobs/{id} reply.
type jobStatus struct {
	JobID   string `json:"job_id"`
	Kernel  string `json:"kernel"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`

	Points    int `json:"points"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Pending   int `json:"pending"`

	// Search-job fields (kind == "search"): Points/Completed/Pending above
	// are expressed in budget terms (budget, evaluated, remaining), and the
	// adaptive progress rides alongside.
	Kind      string `json:"kind,omitempty"`
	Round     int    `json:"round,omitempty"`
	FrontSize int    `json:"front_size,omitempty"`
	Simulated int    `json:"simulated,omitempty"`
}

// jobStatusOf snapshots the job's progress without blocking on any
// simulation.
func (s *Server) jobStatusOf(j *job) jobStatus {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	st := jobStatus{JobID: j.id, Kernel: j.req.Kernel, State: j.state,
		Error: j.errMsg, Resumed: j.resumed, Points: j.points,
		Completed: j.completed, Failed: j.failed,
		Pending: max(j.points-j.completed-j.failed, 0)}
	if j.req.Search != nil {
		st.Kind = "search"
		st.Round = j.round
		st.FrontSize = j.frontSize
		st.Simulated = j.simulated
	}
	return st
}

// handleJobs is POST /jobs: submit a sweep job and return immediately.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "job submission is a POST", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad job request: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Validate now, so a bad request fails at submission rather than
	// inside the job goroutine.
	cfgs, points, err := s.expandJob(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	s.jmu.Lock()
	running := 0
	for _, j := range s.jobs {
		if j.state == jobRunning {
			running++
		}
	}
	s.jmu.Unlock()
	if running >= s.opt.MaxJobs {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "job limit reached", http.StatusTooManyRequests)
		return
	}

	id, err := newJobID()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	j := newJob(id, req, cfgs, points, time.Now())
	s.jobsSubmitted.Add(1)
	s.putManifest(j, jobRunning, "")
	s.startJob(j)
	if lg := s.opt.Logger; lg != nil {
		lg.Info("job submitted", "job", id, "kernel", req.Kernel,
			"points", points, "search", req.Search != nil)
	}

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	reply := map[string]any{
		"job_id": id,
		"state":  jobRunning,
		"points": points,
	}
	if req.Search != nil {
		reply["kind"] = "search"
	}
	_ = enc.Encode(reply)
}

// handleJob serves GET /jobs/{id} (status), DELETE /jobs/{id} (cancel), and
// GET /jobs/{id}/results (NDJSON result stream).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		http.NotFound(w, r)
		return
	}
	s.jmu.Lock()
	j, ok := s.jobs[id]
	s.jmu.Unlock()
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.jobStatusOf(j))
	case sub == "" && r.Method == http.MethodDelete:
		s.jmu.Lock()
		j.clientCancelled = true
		cancel := j.cancel
		s.jmu.Unlock()
		if cancel != nil {
			cancel()
		}
		select {
		case <-j.done:
		case <-r.Context().Done():
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.jobStatusOf(j))
	case sub == "results" && r.Method == http.MethodGet:
		s.streamResults(w, r, j)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		http.Error(w, "unsupported job operation", http.StatusMethodNotAllowed)
	}
}

// jobResultLine is one NDJSON line of GET /jobs/{id}/results: a completed
// point ("ok" + its record), or a failed one with its classification.
type jobResultLine struct {
	Index    int            `json:"index"`
	Status   string         `json:"status"`
	Record   *report.Record `json:"record,omitempty"`
	Kind     string         `json:"kind,omitempty"`
	Error    string         `json:"error,omitempty"`
	Attempts int            `json:"attempts,omitempty"`
}

// jobSummaryLine terminates the stream. It deliberately carries no job ID,
// timing, or other run-specific detail: two runs of the same request produce
// byte-identical streams, which is how the kill-and-restart test proves a
// resumed job lost nothing.
type jobSummaryLine struct {
	Status     string          `json:"status"`
	Requested  int             `json:"requested"`
	Evaluated  int             `json:"evaluated"`
	Failed     int             `json:"failed"`
	Failures   []jobResultLine `json:"failures,omitempty"`
	EDPOptimal *report.Record  `json:"edp_optimal,omitempty"`
	Pareto     []report.Record `json:"pareto"`
}

// streamResults tails a job's NDJSON stream: every line published so far,
// then each new one as the job publishes it, flushed line by line so a
// client can follow a running job. The stream ends with the summary line —
// or at the last published line if the job is interrupted, cancelled or
// fails — or when the client goes away.
func (s *Server) streamResults(w http.ResponseWriter, r *http.Request, j *job) {
	// A job that ended before publishing anything is a conflict, not an
	// empty stream.
	s.jmu.Lock()
	state, errMsg, published := j.state, j.errMsg, len(j.lines)
	s.jmu.Unlock()
	if (state == jobFailed || state == jobCancelled) && published == 0 {
		http.Error(w, fmt.Sprintf("job %s: %s", state, errMsg), http.StatusConflict)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	next := 0
	for finished := false; ; {
		s.jmu.Lock()
		lines, update := j.lines, j.update
		s.jmu.Unlock()
		for ; next < len(lines); next++ {
			if _, err := w.Write(lines[next]); err != nil {
				return
			}
		}
		if fl != nil {
			fl.Flush()
		}
		if finished {
			return
		}
		select {
		case <-j.done:
			finished = true // drain lines published before done closed
		case <-update:
		case <-r.Context().Done():
			return
		}
	}
}
