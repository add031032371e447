package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sync"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/serve"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
)

// serveMinPasses is the least number of passes a run makes, whatever the
// window: three consecutive passes cover every stratum.
const serveMinPasses = 3

// serveMaxChecks caps the distinct grids the correctness check recomputes
// with dse.Sweep: the flagged replies are taken in pass and operation
// order, and a flagged reply of a grid beyond the first serveMaxChecks is
// not checked.
const serveMaxChecks = 16

// service is one running sweep server with its store and listener.
type service struct {
	st  *store.Store
	srv *serve.Server
	hs  *http.Server
	url string
	dir string
	// done is closed once the HTTP server's Serve loop has returned.
	done chan struct{}
}

func startService(e *env, dir string) (*service, time.Duration, error) {
	t0 := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, 0, err
	}
	openTime := time.Since(t0)
	srv := serve.New(serve.Options{Workers: e.workers, Store: st, Spans: e.spans})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		st.Close()
		return nil, 0, err
	}
	s := &service{st: st, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), dir: dir, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, openTime, nil
}

// stop shuts the HTTP server and the sweep server down, waits for both,
// closes the store and removes its directory.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	err = errors.Join(err, s.srv.Shutdown(ctx), s.st.Close(), os.RemoveAll(s.dir))
	return err
}

// client is one closed-loop client holding one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is the outcome of one operation: the /sweep body, or a job's
// NDJSON summary line, and the request's trace ID when the server traces.
type reply struct {
	code    int
	body    []byte
	traceID string
	err     error
}

func (c *client) post(path string, body any) reply {
	b, err := json.Marshal(body)
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return reply{code: resp.StatusCode, body: out, traceID: resp.Header.Get("X-Trace-Id"), err: err}
}

// do performs one operation.
func (c *client) do(op serveOp) reply {
	if !op.Job {
		return c.post("/sweep", op.Req)
	}
	rep := c.post("/jobs", op.Req)
	if rep.err != nil || rep.code != http.StatusAccepted {
		return rep
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(rep.body, &sub); err != nil {
		return reply{code: rep.code, body: rep.body, err: err}
	}
	resp, err := c.hc.Get(c.base + "/jobs/" + sub.JobID + "/results")
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	return reply{code: resp.StatusCode, body: last, err: sc.Err()}
}

func (r *reply) failed() bool { return r.err != nil || r.code < 200 || r.code > 299 }

// served is one completed operation.
type served struct {
	reply
	op      serveOp
	latency time.Duration
}

// closedLoop runs clients clients over the phases in turn, each client
// holding one connection for the whole pass and sending its next operation
// only after the previous reply. A phase starts once every operation of the
// one before has been answered. Results are in operation order, phase after
// phase.
func closedLoop(url string, clients int, phases ...[]serveOp) []served {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(url)
		defer cs[i].close()
	}
	var out []served
	for _, ops := range phases {
		res := make([]served, len(ops))
		var mu sync.Mutex
		next := 0
		var wg sync.WaitGroup
		for _, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= len(ops) {
						return
					}
					t0 := time.Now()
					rep := c.do(ops[i])
					res[i] = served{reply: rep, op: ops[i], latency: time.Since(t0)}
				}
			}()
		}
		wg.Wait()
		out = append(out, res...)
	}
	return out
}

// runServe drives in-process sweep servers over loopback HTTP with
// closed-loop clients, one fresh server and store per pass, until the
// window ends.
//
//	throughput_per_s  operations per second (median over passes)
//	latency_p50/p90   one operation (median over passes)
//	time_to_front_s   one pass, every (kernel, memory system) answered (median)
//	setup_s           store open, server start and one warm-up request per kernel (median over passes)
func runServe(e *env) (*outcome, error) {
	o := newOutcome()
	traffic := newServeTraffic(e.seed)
	warm := traffic.warmup()

	var (
		setupS, passS, rateS []float64
		latMS                [][]float64
		jobMS, openMS        []float64
		flagged              []served
		elapsed              time.Duration
		ops                  int
		layers               = newServeLayers(traffic.strata)
		watch                = watchRuntime()
	)
	// A pass starts only if it is expected to end within the window.
	for p := 0; p < serveMinPasses || elapsed+elapsed/time.Duration(p) <= e.window(); p++ {
		pass := traffic.pass()
		debug.FreeOSMemory()
		t0 := time.Now()
		svc, open, err := startService(e, filepath.Join(e.dir, fmt.Sprintf("store-%d", p)))
		if err != nil {
			return nil, err
		}
		if err := warmUp(svc, warm); err != nil {
			svc.stop()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		openMS = append(openMS, float64(open)/1e6)

		t1 := time.Now()
		done := closedLoop(svc.url, e.workers, pass.New, pass.Repeats)
		d := time.Since(t1)
		elapsed += d
		passS = append(passS, d.Seconds())
		rateS = append(rateS, float64(len(done))/d.Seconds())
		ops += len(done)
		var passMS []float64
		for _, s := range done {
			passMS = append(passMS, float64(s.latency)/1e6)
			if s.op.Job {
				jobMS = append(jobMS, float64(s.latency)/1e6)
			}
		}
		latMS = append(latMS, passMS)

		// Untimed: count failures and aborted points, check every job, and
		// keep the flagged /sweep replies for the check after the window.
		flagged = append(flagged, checkPass(o, svc, done)...)
		if e.traced() {
			if err := layers.addPass(svc, p, warm, done); err != nil {
				svc.stop()
				return nil, err
			}
		}
		if err := svc.stop(); err != nil {
			return nil, err
		}
	}
	watch.stop(o)
	o.e2e["setup_s"] = median(setupS)
	o.e2e["time_to_front_s"] = median(passS)
	o.e2e["throughput_per_s"] = median(rateS)
	latencyMetrics(o, latMS, "one serve operation")
	o.notef("serve: %d passes of %d operations (%d jobs each), %d set-ups; %d checked replies",
		len(passS), ops/len(passS), serveJobsPerPass, len(setupS), len(flagged))
	o.notef("serve: pass times %.4g s, set-ups %.4g s", passS, setupS)

	if err := checkSweeps(o, flagged, e.workers); err != nil {
		return nil, err
	}
	if e.traced() {
		o.layers["store.open_ms"] = median(openMS)
		o.layers["serve.job_ms_p50"] = median(jobMS)
		if err := layers.report(e, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// warmUp sends one warm-up request per kernel, which compiles it.
func warmUp(svc *service, warm []serveOp) error {
	c := newClient(svc.url)
	defer c.close()
	for _, op := range warm {
		if rep := c.do(op); rep.failed() {
			return fmt.Errorf("warm-up request for %s: status %d: %v %s", op.Req.Kernel, rep.code, rep.err, rep.body)
		}
	}
	return nil
}

// checkPass counts a pass's failed operations — errors, non-2xx replies,
// aborted points — and checks every job's summary against the /sweep reply
// for the same grid. It returns the flagged /sweep replies.
func checkPass(o *outcome, svc *service, done []served) []served {
	c := newClient(svc.url)
	defer c.close()
	var flagged []served
	for _, s := range done {
		o.attempted++
		if s.failed() {
			o.fail(1, "%+v: status %d: %v %s", s.op, s.code, s.err, s.body)
			continue
		}
		if s.op.Job {
			rep := c.do(serveOp{Req: s.op.Req})
			if rep.failed() {
				o.fail(1, "job check %s: /sweep status %d: %v", s.op.Req.Kernel, rep.code, rep.err)
			} else if msg := compareJob(s.body, rep.body); msg != "" {
				o.fail(1, "job %s: %s", s.op.Req.Kernel, msg)
			}
			continue
		}
		var counts struct {
			Aborted *int `json:"aborted_points"`
		}
		if err := json.Unmarshal(s.body, &counts); err != nil || counts.Aborted == nil || *counts.Aborted != 0 {
			o.fail(1, "sweep %s: aborted points in reply %.200s", s.op.Req.Kernel, s.body)
			continue
		}
		if s.op.Check {
			flagged = append(flagged, s)
		}
	}
	if n := svc.srv.Snapshot().PointsAborted; n != 0 {
		o.fail(int(n), "the server aborted %d points", n)
	}
	return flagged
}

// checkSweeps recomputes the flagged replies' grids with dse.Sweep over
// SweepRequest.Configs() — the first serveMaxChecks distinct grids — and
// demands the reply's counts, front and EDP optimum exactly.
func checkSweeps(o *outcome, flagged []served, workers int) error {
	ks := map[string]*soc.Compiled{}
	want := map[string]dse.Space{}
	for _, s := range flagged {
		key, err := json.Marshal(s.op.Req)
		if err != nil {
			return err
		}
		sp, ok := want[string(key)]
		if !ok {
			if len(want) == serveMaxChecks {
				continue
			}
			k, err := compiled(ks, s.op.Req.Kernel)
			if err != nil {
				return err
			}
			cfgs, err := s.op.Req.Configs()
			if err != nil {
				return err
			}
			if sp, err = dse.Sweep(context.Background(), k, cfgs, dse.SweepOptions{Workers: workers}); err != nil {
				return err
			}
			want[string(key)] = sp
		}
		o.attempted++
		if msg := compareSweep(s.body, s.op.Req, sp); msg != "" {
			o.fail(1, "sweep %s: %s", s.op.Req.Kernel, msg)
		}
	}
	return nil
}

// compiled returns the named kernel's artifact, compiling it into ks on
// first use.
func compiled(ks map[string]*soc.Compiled, name string) (*soc.Compiled, error) {
	if k := ks[name]; k != nil {
		return k, nil
	}
	m, _, err := compileKernels([]string{name}, false)
	if err != nil {
		return nil, err
	}
	ks[name] = m[name]
	return m[name], nil
}

// compareSweep checks a /sweep reply against sp, a direct dse.Sweep of the
// same grid: counts, front and EDP optimum must match exactly.
func compareSweep(body []byte, req serve.SweepRequest, sp dse.Space) string {
	var resp serve.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err.Error()
	}
	cfgs, err := req.Configs()
	if err != nil {
		return err.Error()
	}
	if resp.RequestedPoints != len(cfgs) || resp.EvaluatedPoints != len(sp) || resp.AbortedPoints != 0 {
		return fmt.Sprintf("counts %d/%d/%d, want %d/%d/0", resp.RequestedPoints, resp.EvaluatedPoints,
			resp.AbortedPoints, len(cfgs), len(sp))
	}
	front := sp.ParetoFront()
	want := make([]report.Record, len(front))
	for i, p := range front {
		want[i] = report.FromResult(req.Kernel, p.Res)
	}
	if !reflect.DeepEqual(resp.Pareto, want) {
		return "front differs from dse.Sweep"
	}
	best, ok := sp.EDPOptimal()
	if !ok || resp.EDPOptimal == nil || !reflect.DeepEqual(*resp.EDPOptimal, report.FromResult(req.Kernel, best.Res)) {
		return "EDP optimum differs from dse.Sweep"
	}
	return ""
}

// compareJob checks a job's NDJSON summary line against the /sweep reply
// for the same grid.
func compareJob(summary, sweepBody []byte) string {
	var sum struct {
		Status     string          `json:"status"`
		Requested  int             `json:"requested"`
		Evaluated  int             `json:"evaluated"`
		Failed     int             `json:"failed"`
		EDPOptimal *report.Record  `json:"edp_optimal"`
		Pareto     []report.Record `json:"pareto"`
	}
	var resp serve.SweepResponse
	if err := json.Unmarshal(summary, &sum); err != nil {
		return "summary: " + err.Error()
	}
	if err := json.Unmarshal(sweepBody, &resp); err != nil {
		return "sweep: " + err.Error()
	}
	switch {
	case sum.Status != "summary" || sum.Failed != 0:
		return fmt.Sprintf("summary status %q with %d failed points", sum.Status, sum.Failed)
	case sum.Requested != resp.RequestedPoints || sum.Evaluated != resp.EvaluatedPoints:
		return "summary counts differ from /sweep"
	case !reflect.DeepEqual(sum.Pareto, resp.Pareto) || !reflect.DeepEqual(sum.EDPOptimal, resp.EDPOptimal):
		return "summary front differs from /sweep"
	}
	return ""
}

// serveLayers gathers a traced run's per-layer values pass by pass, while
// each pass's server and store are still up.
type serveLayers struct {
	strata    []stratum
	stores    []store.Stats
	snap      serve.Snapshot
	byTrace   map[string]stratum // request trace ID -> stratum it sweeps
	allocKs   []*soc.Compiled
	allocCfgs []soc.Config
	work      *simWork
}

func newServeLayers(strata []stratum) *serveLayers {
	return &serveLayers{strata: strata, byTrace: map[string]stratum{}}
}

// serveAllocGrids is how many new grids of the first pass the allocation
// count runs, serially on one soc.Runner.
const serveAllocGrids = 4

func (l *serveLayers) addPass(svc *service, p int, warm []serveOp, done []served) error {
	l.stores = append(l.stores, svc.st.Stats())
	snap := svc.srv.Snapshot()
	l.snap.CacheHits += snap.CacheHits
	l.snap.CacheMisses += snap.CacheMisses
	l.snap.PointsSimulated += snap.PointsSimulated
	l.snap.Rejected += snap.Rejected
	for _, s := range done {
		if s.traceID != "" {
			l.byTrace[s.traceID] = l.strata[s.op.Stratum]
		}
	}
	if p > 0 {
		return nil
	}
	// Simulated work of the first pass (warm-up and new grids), read back
	// from its store.
	l.work = newSimWork()
	ks := map[string]*soc.Compiled{}
	ops := append([]serveOp(nil), warm...)
	for _, s := range done {
		if s.op.New {
			ops = append(ops, s.op)
		}
	}
	for i, op := range ops {
		cfgs, err := op.Req.Configs()
		if err != nil {
			return err
		}
		for _, cfg := range cfgs {
			data, ok, err := svc.st.Get(dse.PointKey(op.Req.Kernel, cfg))
			if err != nil || !ok {
				return fmt.Errorf("point of %s missing from the store", op.Req.Kernel)
			}
			cp, ok, err := dse.DecodePoint(data)
			if err != nil || !ok || cp.Aborted {
				return fmt.Errorf("point of %s unreadable in the store", op.Req.Kernel)
			}
			l.work.add(cp.Result)
		}
		if i >= len(warm) && i < len(warm)+serveAllocGrids {
			k, err := compiled(ks, op.Req.Kernel)
			if err != nil {
				return err
			}
			for _, cfg := range cfgs {
				l.allocKs = append(l.allocKs, k)
				l.allocCfgs = append(l.allocCfgs, cfg)
			}
		}
	}
	return nil
}

// report writes the serve run's per-layer metrics. The server compiles its
// kernels itself, out of the benchmark's reach, so the front-end metrics
// read 0 here; grid measures the same calls over the same kernels.
func (l *serveLayers) report(e *env, o *outcome) error {
	l.work.report(o)
	if err := pointAllocs(l.allocKs, l.allocCfgs, o); err != nil {
		return err
	}
	storeLayers(o, l.stores)
	if h := l.snap.CacheHits + l.snap.CacheMisses; h > 0 {
		o.layers["serve.cache_hit_ratio"] = float64(l.snap.CacheHits) / float64(h)
	}
	o.layers["serve.points_simulated"] = float64(l.snap.PointsSimulated)
	o.layers["serve.rejected"] = float64(l.snap.Rejected)

	set, err := e.sink.spans()
	if err != nil {
		return err
	}
	var self []float64
	for _, r := range set.named("sweep") {
		self = append(self, float64(set.selfTime(r))/1e6)
	}
	o.layers["serve.request_self_ms_p50"] = median(self)
	o.layers["serve.cache_lookup_ms_p50"] = median(msOf(set.named("cache-lookup")))
	o.layers["serve.admission_wait_ms_p99"] = percentile(msOf(set.named("admission-wait")), 0.99).Value
	qw := msOf(set.named("queue-wait"))
	o.layers["serve.queue_wait_ms_p50"] = median(qw)
	o.layers["serve.queue_wait_ms_p99"] = percentile(qw, 0.99).Value
	sims := set.named("simulate")
	o.layers["serve.simulate_ms_p50"] = median(msOf(sims))
	core := newCoreSpans()
	for _, r := range sims {
		if st, ok := l.byTrace[r.Trace]; ok {
			core.add(st.Mem, st.Fabric, r)
		}
	}
	core.report(o)
	return nil
}
