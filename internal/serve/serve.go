// Package serve turns the design-space explorer into a long-running HTTP
// service: sweep-as-a-service. Clients POST a kernel name and a config grid
// to /sweep and get back the Pareto front and EDP optimum as JSON. Every
// point — of /sweep requests, grid jobs and search jobs alike — runs on one
// shared dse.Evaluator, which memoizes outcomes in a content-addressed cache
// keyed by dse.PointKey (canonical hash of kernel + soc.Config) and
// deduplicates concurrent identical work singleflight-style, so N clients
// asking for the same sweep cost one simulation per unique point.
//
// Operational behavior:
//
//   - Backpressure: /sweep requests and POST /jobs pass one admission
//     path and one gate, which reserves a slot under Options.QueueDepth
//     for a /sweep request and under Options.MaxJobs for a job; with no
//     slot free the server answers 429 with a Retry-After hint instead of
//     queueing unboundedly.
//   - Cancellation: each request carries a context (client disconnect or
//     the request/server timeout); a cancelled request drops its claim on
//     queued points, and points nobody still wants are skipped, so worker
//     slots are released rather than burned on abandoned work.
//   - Graceful shutdown: Shutdown stops admissions, interrupts running
//     jobs (they resume on the next boot), drains in-flight sweeps, then
//     joins the workers.
//   - Observability: /statsz (gem5-style text, JSON on request) and
//     /metrics (Prometheus exposition) expose an internal/obs registry
//     with cache hit rate, queue depth, points/s, and p50/p99 sweep
//     latency. With Options.Spans set, every request becomes a root span
//     with children for admission, cache lookup, queue wait, and each
//     point's simulation; the response carries the trace ID and
//     GET /trace/{id} replays the trace as Perfetto JSON. Options.Logger
//     (log/slog) receives request, slow-point, and lifecycle records.
//
// A /sweep request runs as a grid job does, inline: the same admission and
// the same grid run, with no job table entry, no manifest and no stream.
// Responses are bit-identical to a direct dse.Sweep over the same grid: both
// run on a dse.Evaluator, and aborted (fault-poisoned) points are compacted
// out of the space in request order exactly as dse.Sweep does.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
	"gem5aladdin/internal/trace"
)

// ErrUnknownKernel marks a request naming a kernel the server cannot build;
// handlers map it to 400 rather than 500.
var ErrUnknownKernel = errors.New("serve: unknown kernel")

// Options configures a Server. The zero value is usable: every field has a
// default.
type Options struct {
	// Workers is the number of simulation workers, each owning one reused
	// soc.Runner. Defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many sweep requests may be admitted at once
	// (queued or running). Further requests are rejected with 429 and a
	// Retry-After hint. Defaults to 8.
	QueueDepth int
	// RequestTimeout bounds one sweep request end to end; a request's
	// timeout_ms field can tighten but not extend it. Defaults to 2 min.
	RequestTimeout time.Duration
	// CacheEntries bounds the content-addressed result cache; the oldest
	// completed points are evicted FIFO past it. Defaults to 65536.
	CacheEntries int
	// RetryAfter is the hint sent with 429 responses. Defaults to 1s.
	RetryAfter time.Duration
	// BuildKernel resolves a kernel name to its dynamic trace. Defaults to
	// the MachSuite registry; tests inject cheap synthetic kernels here.
	BuildKernel func(name string) (*trace.Trace, error)

	// Store, when non-nil, is the durable result store: every finished
	// design point (success or classified failure) is written through to it
	// before its waiters are released, warm-starting the in-memory cache
	// across restarts, and job manifests checkpoint into it so interrupted
	// jobs resume on the next boot. The server owns neither Open nor Close.
	Store *store.Store
	// PointBudget is the per-point no-progress watchdog budget in simulated
	// ticks, applied to every point whose request does not set its own
	// watchdog_ticks. A livelocked point aborts with a structured
	// *sim.StallError instead of burning its worker until the request
	// timeout. Zero disables the budget. The budget is deliberately
	// virtual-time, not wall-clock: the same config fails (or passes)
	// identically on every run, which keeps resumed jobs bit-identical. It
	// is folded into each point's config, so it is part of the point's key:
	// points stored under another budget simulate afresh.
	PointBudget sim.Tick
	// MaxPointRetries bounds how many times a worker retries a
	// fault-injection abort before recording the point as failed (stalls
	// and sanitizer violations never retry — they are deterministic).
	// Defaults to 2; negative disables retrying.
	MaxPointRetries int
	// PointRetryBackoff is the delay before the first retry, doubling per
	// attempt (capped at 1s). Defaults to 10ms.
	PointRetryBackoff time.Duration
	// MaxJobs bounds concurrently running jobs (POST /jobs answers 429
	// beyond it). Defaults to 16.
	MaxJobs int
	// MaxSearchBudget caps the evaluation budget of adaptive-search jobs;
	// requests asking for more (or leaving the budget unset) are clamped
	// to it. Defaults to 400.
	MaxSearchBudget int

	// Logger receives structured request, slow-point, and lifecycle
	// records. Nil disables logging entirely (no formatting work happens).
	Logger *slog.Logger
	// Spans, when set, turns every sweep request into a wall-clock trace:
	// a root span with children for each request phase and design point,
	// retained for GET /trace/{id} export. Nil disables span tracing at
	// zero cost (every span handle is the nil no-op span).
	Spans *obs.SpanTracer
	// SlowPoint is the per-point simulation duration beyond which a
	// warning is logged. Zero disables the warning.
	SlowPoint time.Duration
}

func (o *Options) setDefaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Minute
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1 << 16
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxPointRetries == 0 {
		o.MaxPointRetries = 2
	}
	if o.MaxPointRetries < 0 {
		o.MaxPointRetries = 0
	}
	if o.PointRetryBackoff <= 0 {
		o.PointRetryBackoff = 10 * time.Millisecond
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 16
	}
	if o.MaxSearchBudget <= 0 {
		o.MaxSearchBudget = 400
	}
	if o.BuildKernel == nil {
		o.BuildKernel = func(name string) (*trace.Trace, error) {
			k, err := machsuite.ByName(name)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrUnknownKernel, err)
			}
			return k.Build()
		}
	}
}

// Server is the sweep service. Create with New, mount Handler, and drain
// with Shutdown.
type Server struct {
	opt Options
	reg *obs.Registry
	mux *http.ServeMux

	// eval runs every design point the server evaluates.
	eval *dse.Evaluator

	// mu orders admissions against Shutdown's drain: a request takes its
	// hold on wg under mu, and only while closed is false.
	mu     sync.Mutex
	closed bool           // Shutdown began: admit no new requests
	wg     sync.WaitGroup // one hold per admitted /sweep request or job

	// jobCtx is every job's parent; Shutdown cancels it with stopJobs, so a
	// job admitted just before Shutdown is interrupted like any other.
	jobCtx   context.Context
	stopJobs context.CancelFunc

	gmu    sync.Mutex
	graphs map[string]*graphEntry

	// jmu guards the job table and per-job mutable state.
	jmu  sync.Mutex
	jobs map[string]*job

	start time.Time

	requests       atomic.Uint64
	rejected       atomic.Uint64
	activeRequests atomic.Int64

	jobsSubmitted atomic.Uint64
	jobsCompleted atomic.Uint64
	jobsFailed    atomic.Uint64
	jobsCancelled atomic.Uint64
	jobsResumed   atomic.Uint64
	activeJobs    atomic.Int64

	searchRounds atomic.Uint64
	searchPoints atomic.Uint64

	// statsMu serializes latency-histogram observations against registry
	// dumps; it is the locker handed to obs.Handler, so stat closures must
	// not take it themselves.
	statsMu sync.Mutex
	latency *obs.Histogram
}

// New starts a Server: registers its statistics and launches the
// evaluator's worker pool. Callers own shutdown via Shutdown.
func New(opt Options) *Server {
	opt.setDefaults()
	s := &Server{
		opt: opt,
		reg: obs.NewRegistry(),
		mux: http.NewServeMux(),
		eval: dse.NewEvaluator(dse.EvaluatorOptions{
			Workers:      opt.Workers,
			Store:        opt.Store,
			CacheEntries: opt.CacheEntries,
			Retry:        dse.RetryPolicy{Max: opt.MaxPointRetries, Backoff: opt.PointRetryBackoff},
			Logger:       opt.Logger,
			SlowPoint:    opt.SlowPoint,
		}),
		graphs: make(map[string]*graphEntry),
		jobs:   make(map[string]*job),
		start:  time.Now(),
	}
	s.jobCtx, s.stopJobs = context.WithCancel(context.Background())
	s.registerStats()
	s.routes()
	// Resume any jobs a previous process left running in the store. This
	// happens after the workers start, so resumed points begin simulating
	// immediately; already-finished points come back from the store.
	s.resumeJobs()
	if lg := s.opt.Logger; lg != nil {
		lg.Info("sweep service started",
			"workers", opt.Workers,
			"queue_depth", opt.QueueDepth,
			"cache_entries", opt.CacheEntries,
			"request_timeout", opt.RequestTimeout.String(),
			"tracing", opt.Spans != nil,
			"durable", opt.Store != nil)
	}
	return s
}

func (s *Server) registerStats() {
	r := s.reg
	r.CounterFunc("serve.requests", "sweep requests received", s.requests.Load)
	r.CounterFunc("serve.requests.rejected", "requests rejected with 429 backpressure", s.rejected.Load)
	r.GaugeFunc("serve.requests.active", "requests currently admitted", func() float64 {
		return float64(s.activeRequests.Load())
	})
	ev := s.eval.Stats
	r.CounterFunc("serve.cache.hits", "design points served without a new simulation", func() uint64 { return ev().Hits })
	r.CounterFunc("serve.cache.misses", "design points that required simulation", func() uint64 { return ev().Simulated })
	r.Formula("serve.cache.hit_rate", "fraction of requested points served from cache or joined in flight", func() float64 {
		st := ev()
		h, m := float64(st.Hits), float64(st.Simulated)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	})
	r.GaugeFunc("serve.cache.entries", "design points resident in the result cache", func() float64 { return float64(ev().Entries) })
	r.CounterFunc("serve.cache.warm_hits", "design points served from the durable store at first touch", func() uint64 { return ev().WarmHits })
	r.CounterFunc("serve.points.simulated", "design points actually simulated", func() uint64 { return ev().Simulated })
	r.CounterFunc("serve.points.aborted", "simulated points poisoned by the robustness layer", func() uint64 { return ev().Aborted })
	r.CounterFunc("serve.points.abandoned", "queued points skipped after every requester cancelled", func() uint64 { return ev().Abandoned })
	r.CounterFunc("serve.points.retries", "fault-abort retries spent by workers", func() uint64 { return ev().Retries })
	r.CounterFunc("serve.jobs.submitted", "sweep jobs accepted via POST /jobs", s.jobsSubmitted.Load)
	r.CounterFunc("serve.jobs.completed", "jobs that reached completion", s.jobsCompleted.Load)
	r.CounterFunc("serve.jobs.failed", "jobs that failed terminally", s.jobsFailed.Load)
	r.CounterFunc("serve.jobs.cancelled", "jobs cancelled by clients", s.jobsCancelled.Load)
	r.CounterFunc("serve.jobs.resumed", "interrupted jobs resumed from the store at boot", s.jobsResumed.Load)
	r.GaugeFunc("serve.jobs.active", "jobs currently running", func() float64 {
		return float64(s.activeJobs.Load())
	})
	r.CounterFunc("serve.search.rounds", "adaptive-search rounds completed (including replayed)", s.searchRounds.Load)
	r.CounterFunc("serve.search.points", "design points simulated by adaptive-search jobs", s.searchPoints.Load)
	if s.opt.Store != nil {
		s.opt.Store.RegisterStats(r, "store")
	}
	r.GaugeFunc("serve.queue.points", "design points queued awaiting a worker", func() float64 { return float64(ev().Queued) })
	r.Formula("serve.points.per_sec", "simulated points per second of uptime", func() float64 {
		up := time.Since(s.start).Seconds()
		if up <= 0 {
			return 0
		}
		return float64(ev().Simulated) / up
	})
	s.latency = r.Histogram("serve.sweep.latency_ms", "end-to-end sweep request latency",
		[]float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000})
	r.Formula("serve.sweep.latency_p50", "median sweep latency (ms)", func() float64 {
		return s.latency.Quantile(0.5)
	})
	r.Formula("serve.sweep.latency_p99", "99th-percentile sweep latency (ms)", func() float64 {
		return s.latency.Quantile(0.99)
	})
}

func (s *Server) routes() {
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/jobs/", s.handleJob)
	s.mux.HandleFunc("/kernels", s.handleKernels)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.Handle("/statsz", obs.Handler(s.reg, &s.statsMu))
	s.mux.Handle("/metrics", obs.PromHandler(s.reg, &s.statsMu))
	s.mux.HandleFunc("/trace/", s.handleTrace)
}

// handleTrace exports one retained request trace as Chrome trace-event /
// Perfetto JSON: GET /trace/{id} with the trace ID a sweep response (or
// its X-Trace-Id header) carried.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "traces are read-only", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/trace/")
	if id == "" || strings.ContainsRune(id, '/') {
		http.NotFound(w, r)
		return
	}
	tr := s.opt.Spans
	if tr == nil || len(tr.Collect(id)) == 0 {
		http.Error(w, "unknown or expired trace (span tracing may be disabled)",
			http.StatusNotFound)
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	if r.Method == http.MethodHead {
		return
	}
	if ok, _ := tr.WriteTraceJSON(w, id); !ok {
		// The trace aged out of the retention ring between the existence
		// check and the export; nothing was written yet.
		http.Error(w, "trace expired", http.StatusNotFound)
	}
}

// Handler returns the service's HTTP mux: POST /sweep, GET /kernels,
// /healthz, /statsz (gem5 text), /metrics (Prometheus), /trace/{id}
// (Perfetto JSON).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the service statistics, for embedding in other dumps.
func (s *Server) Registry() *obs.Registry { return s.reg }

// SweepRequest is the POST /sweep body. Axes left empty default to the
// quick sweep grid (or the full Fig 3 grid with full=true), mirroring
// cmd/dse, so a minimal request body is a kernel name alone.
type SweepRequest struct {
	// Kernel names the benchmark (see GET /kernels).
	Kernel string `json:"kernel"`
	// Mem picks the memory system: "isolated", "dma" (default), "cache".
	Mem string `json:"mem,omitempty"`
	// BusBits sets the system bus width (default 32).
	BusBits int `json:"bus_bits,omitempty"`

	Lanes      []int `json:"lanes,omitempty"`
	Partitions []int `json:"partitions,omitempty"`
	CacheKB    []int `json:"cache_kb,omitempty"`
	CacheLines []int `json:"cache_lines,omitempty"`
	CachePorts []int `json:"cache_ports,omitempty"`
	CacheAssoc []int `json:"cache_assoc,omitempty"`

	// Fabrics crosses the grid with interconnect topologies by name
	// ("bus", "crossbar", "mesh"). Empty keeps the round-robin bus.
	Fabrics []string `json:"fabric,omitempty"`
	// MeshDim sets the mesh side length for every point (mesh only).
	MeshDim int `json:"mesh_dim,omitempty"`
	// BurstLen sets the crossbar burst length in beats for every point
	// (crossbar only; 0 derives it from the DMA chunk size).
	BurstLen int `json:"burst_len,omitempty"`

	// Faults enables deterministic seeded fault injection for every point
	// in the grid. Outcomes are still per-point: whether a design point
	// survives depends on its own traffic under the shared seed, which is
	// exactly the heterogeneity the job API's failure isolation reports.
	Faults *FaultSpec `json:"faults,omitempty"`
	// WatchdogTicks arms each point's no-progress watchdog with an
	// explicit budget in picoseconds of virtual time. Zero leaves points
	// on the server's point-budget default (Options.PointBudget).
	WatchdogTicks uint64 `json:"watchdog_ticks,omitempty"`

	// Search switches the request from an exhaustive grid to the adaptive
	// Pareto-guided search. Search requests must be submitted as jobs
	// (POST /jobs): an open-ended search does not fit the synchronous
	// /sweep contract. The grid axes above are ignored; the searched axes
	// come from Search.Axes (or the default large space for the memory
	// kind).
	Search *SearchSpec `json:"search,omitempty"`

	// Full defaults unspecified axes to the full sweep grid instead of the
	// pruned quick grid.
	Full bool `json:"full,omitempty"`
	// IncludeSpace returns every evaluated point, not just the front.
	IncludeSpace bool `json:"include_space,omitempty"`
	// TimeoutMS tightens (never extends) the server's request timeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// FaultSpec is the wire form of a fault-injection configuration: the same
// knobs as fault.Config with JSON names and nanosecond durations (the
// internal config counts picosecond ticks).
type FaultSpec struct {
	Seed          uint64  `json:"seed"`
	DRAMBitProb   float64 `json:"dram_bit_prob,omitempty"`
	SpadBitProb   float64 `json:"spad_bit_prob,omitempty"`
	CacheBitProb  float64 `json:"cache_bit_prob,omitempty"`
	DoubleBitFrac float64 `json:"double_bit_frac,omitempty"`
	BusNackProb   float64 `json:"bus_nack_prob,omitempty"`
	BusRetryLimit int     `json:"bus_retry_limit,omitempty"`
	BusBackoffNS  uint64  `json:"bus_backoff_ns,omitempty"`
	DMATimeoutNS  uint64  `json:"dma_timeout_ns,omitempty"`
	DMARetries    int     `json:"dma_retries,omitempty"`
}

// Config converts the wire spec to the simulator's fault configuration.
func (f FaultSpec) Config() fault.Config {
	return fault.Config{
		Seed:          f.Seed,
		DRAMBitProb:   f.DRAMBitProb,
		SpadBitProb:   f.SpadBitProb,
		CacheBitProb:  f.CacheBitProb,
		DoubleBitFrac: f.DoubleBitFrac,
		BusNackProb:   f.BusNackProb,
		BusRetryLimit: f.BusRetryLimit,
		BusBackoff:    sim.Tick(f.BusBackoffNS) * sim.Nanosecond,
		DMATimeout:    sim.Tick(f.DMATimeoutNS) * sim.Nanosecond,
		DMARetries:    f.DMARetries,
	}
}

// Configs expands the request into its design-point grid, exactly as
// cmd/dse would build it: the points /sweep evaluates on a server without a
// point budget. Exported so tests can replay the same grid through
// dse.Sweep and demand bit-identical results.
func (req SweepRequest) Configs() ([]soc.Config, error) {
	x, err := req.expand(0, 0)
	if err == nil {
		err = x.walk()
	}
	return x.cfgs, err
}

// maxGridPoints bounds a grid request's cross product, checked before the
// grid is enumerated: 30x the full Fig 3 cache grid crossed with every
// fabric. Repeated axis values are accepted, so without a bound a request
// of about a kilobyte expands to tens of thousands of configs before
// admission, and one of a megabyte names more than 10^10.
const maxGridPoints = 1 << 16

// expansion is a request expanded into the design space it walks. A grid
// walks all of it, so once walked cfgs holds every point Config.Validate
// accepts, in rank order; a search samples it, up to its clamped budget.
type expansion struct {
	space  dse.SearchSpace
	grid   bool
	cfgs   []soc.Config // a walked grid's points
	points int          // len(cfgs), or the search budget
}

// expand is the one request→space expansion that /sweep, grid jobs and
// search jobs share. The base config carries the memory kind, bus width,
// fabric parameters, faults and watchdog. A grid's axes are the Fig 3 table,
// quick or full, with the lanes…cache_assoc fields overriding axes by name;
// a search's are its spec's axes, or the default large space for the
// memory kind, and its budget is clamped to maxSearch. A fabric list adds
// the fabric axis to either. A zero maxSearch refuses a search, as /sweep
// does: an open-ended search does not fit the synchronous /sweep contract.
//
// budget is the server's point budget, the watchdog of every point whose
// request leaves watchdog_ticks zero. It is folded into the base config, so
// it is part of every point key and of a search's checkpoint fingerprint:
// grids, /sweep and searches share the points they have in common, and
// restarting with a different -point-timeout starts a search fresh rather
// than resuming against differently budgeted results.
func (req SweepRequest) expand(budget sim.Tick, maxSearch int) (expansion, error) {
	if req.Search != nil && maxSearch == 0 {
		return expansion{}, errors.New("serve: search requests must be submitted as jobs (POST /jobs)")
	}
	kind, err := soc.ParseMemKind(req.Mem)
	if err != nil {
		return expansion{}, fmt.Errorf("serve: %w", err)
	}
	base := soc.DefaultConfig()
	if req.BusBits != 0 {
		base.BusWidthBits = req.BusBits
	}
	if req.Faults != nil {
		base.Faults = req.Faults.Config()
	}
	base.WatchdogTicks = sim.Tick(req.WatchdogTicks)
	if base.WatchdogTicks == 0 {
		base.WatchdogTicks = budget
	}
	base.Fabric.MeshDim = req.MeshDim
	base.Fabric.BurstLen = req.BurstLen
	if err := base.Validate(); err != nil {
		return expansion{}, err
	}
	base.Mem = kind
	kinds := make([]soc.FabricKind, len(req.Fabrics))
	for i, name := range req.Fabrics {
		if kinds[i], err = soc.ParseFabricKind(name); err != nil {
			return expansion{}, fmt.Errorf("serve: %w", err)
		}
	}

	x := expansion{space: dse.SearchSpace{Base: base}}
	if req.Search != nil {
		x.space.Axes = req.Search.Axes
		if len(x.space.Axes) == 0 {
			x.space.Axes = dse.DefaultSearchAxes(kind)
		}
		x.space.Axes = dse.WithFabricAxis(x.space.Axes, kinds)
		x.points = req.Search.Budget
		if x.points <= 0 || x.points > maxSearch {
			x.points = maxSearch
		}
		return x, x.space.Validate()
	}
	x.space = dse.GridSpace(base, req.Full, kinds)
	overrides := map[string][]int{"lanes": req.Lanes, "partitions": req.Partitions,
		"cache_kb": req.CacheKB, "cache_line": req.CacheLines,
		"cache_ports": req.CachePorts, "cache_assoc": req.CacheAssoc}
	for i, a := range x.space.Axes {
		if v := overrides[a.Name]; len(v) > 0 {
			x.space.Axes[i].Values = v
		}
	}
	if err := x.space.Validate(); err != nil {
		return expansion{}, err
	}
	if n := x.space.Size(); n > maxGridPoints {
		return expansion{}, fmt.Errorf("serve: grid of %d points exceeds the limit of %d", n, maxGridPoints)
	}
	x.grid = true
	return x, nil
}

// walk enumerates a grid's points. expand leaves it for after admission:
// a grid at the maxGridPoints bound holds tens of megabytes of configs,
// which a request turned away with 429 must not cost. Every check that
// needs no enumeration has already run in expand. A search has nothing to
// walk.
func (x *expansion) walk() error {
	if !x.grid {
		return nil
	}
	cfgs := x.space.Grid()
	if x.space.Base.Mem != soc.Cache && uint64(len(cfgs)) < x.space.Size() {
		// The cache walk prunes illegal geometries (that is the sweep
		// contract), so an all-illegal cache grid surfaces as the empty-grid
		// error below; a scratchpad grid has nothing legal to prune, so its
		// first infeasible point fails the request with its ConfigError.
		for r := uint64(0); ; r++ {
			if err := x.space.Config(x.space.Unrank(r)).Validate(); err != nil {
				return err
			}
		}
	}
	if len(cfgs) == 0 {
		return errors.New("serve: request expands to an empty design grid")
	}
	x.cfgs, x.points = cfgs, len(cfgs)
	return nil
}

// SweepResponse is the POST /sweep reply.
type SweepResponse struct {
	Kernel string `json:"kernel"`
	Mem    string `json:"mem"`

	// RequestedPoints is the grid size; EvaluatedPoints excludes points
	// the robustness layer aborted (poisoned-point compaction, as in
	// dse.Sweep); CachedPoints says how many cost no new simulation.
	RequestedPoints int `json:"requested_points"`
	EvaluatedPoints int `json:"evaluated_points"`
	AbortedPoints   int `json:"aborted_points"`
	CachedPoints    int `json:"cached_points"`

	// EDPOptimal is null when every point aborted (the empty-space case).
	EDPOptimal *report.Record  `json:"edp_optimal,omitempty"`
	Pareto     []report.Record `json:"pareto"`
	Space      []report.Record `json:"space,omitempty"`

	ElapsedMS float64 `json:"elapsed_ms"`

	// TraceID names the request's span trace when the server runs with
	// span tracing; GET /trace/{id} replays it as Perfetto JSON.
	TraceID string `json:"trace_id,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "sweep requests are POSTs", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Add(1)

	// The root span covers the request end to end; every handle below is
	// the nil no-op span when tracing is off.
	span := s.opt.Spans.StartTrace("sweep")
	defer span.EndSpan()
	tid := ""
	if span != nil {
		tid = span.TraceID
		w.Header().Set("X-Trace-Id", tid)
	}
	lg := s.opt.Logger
	fail := func(code int, msg string) {
		span.SetAttr("error", msg)
		span.SetAttr("status", code)
		if lg != nil {
			lg.LogAttrs(r.Context(), slog.LevelWarn, "sweep rejected",
				slog.String("trace", tid), slog.Int("status", code),
				slog.String("err", msg))
		}
		http.Error(w, msg, code)
	}

	req, x, ok := s.admit(w, r, span, fail, gate{noun: "sweep",
		active: &s.activeRequests, limit: s.opt.QueueDepth, full: "sweep queue full"})
	if !ok {
		return
	}
	defer s.release(&s.activeRequests)

	timeout := s.opt.RequestTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	ctx = obs.WithSpan(ctx, span)

	build := span.Child("build-kernel")
	k, err := s.kernelFor(req.Kernel)
	build.EndSpan()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrUnknownKernel) {
			code = http.StatusBadRequest
		}
		fail(code, err.Error())
		return
	}

	started := time.Now()
	run, err := s.runGrid(ctx, req.Kernel, k, x.cfgs, nil)
	if err != nil {
		fail(http.StatusGatewayTimeout, "serve: sweep unfinished: "+err.Error())
		return
	}
	// A genuine simulation error fails the request; every other failure is
	// an aborted point, compacted out of the space as dse.Sweep does.
	for _, f := range run.Failures {
		if f.Kind == dse.KindError {
			fail(http.StatusInternalServerError, f.Error)
			return
		}
	}
	ms := float64(time.Since(started)) / float64(time.Millisecond)
	resp := &SweepResponse{
		Kernel:          req.Kernel,
		Mem:             x.cfgs[0].Mem.String(),
		RequestedPoints: run.Requested,
		EvaluatedPoints: run.Evaluated,
		AbortedPoints:   run.Failed,
		CachedPoints:    run.cached,
		EDPOptimal:      run.EDPOptimal,
		Pareto:          run.Pareto,
		ElapsedMS:       ms,
		TraceID:         tid,
	}
	if req.IncludeSpace {
		resp.Space = spaceRecords(req.Kernel, run.space)
	}
	s.statsMu.Lock()
	s.latency.Observe(ms)
	s.statsMu.Unlock()

	span.SetAttr("evaluated", resp.EvaluatedPoints)
	span.SetAttr("cached", resp.CachedPoints)
	if lg != nil {
		lg.LogAttrs(r.Context(), slog.LevelInfo, "sweep served",
			slog.String("trace", tid),
			slog.String("kernel", req.Kernel),
			slog.Int("requested", resp.RequestedPoints),
			slog.Int("evaluated", resp.EvaluatedPoints),
			slog.Int("aborted", resp.AbortedPoints),
			slog.Int("cached", resp.CachedPoints),
			slog.Float64("elapsed_ms", ms))
	}

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// gate is what the two grid endpoints admit differently: a /sweep request
// holds a slot on activeRequests under QueueDepth, a job one on activeJobs
// under MaxJobs, and only a job may search.
type gate struct {
	noun      string        // "sweep" or "job", as a decode error names the request
	active    *atomic.Int64 // the slots held
	limit     int
	full      string // the 429 text
	maxSearch int    // a search's budget cap; zero refuses searches
}

// admit runs a grid request's admission, the same steps in the same order
// at both endpoints: decode the body, expand it (every 400 that needs no
// enumeration), reserve a slot at the gate (429 when none is free), walk the
// grid, and take the drain hold unless Shutdown has begun (503). A grid at
// the maxGridPoints bound holds tens of megabytes of configs, which a
// request turned away with 429 must not cost, so the walk comes after the
// gate. On success the caller holds the slot and the hold and must hand
// both to release; on failure admit has answered through fail.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, span *obs.Span, fail func(code int, msg string), g gate) (SweepRequest, expansion, bool) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		fail(http.StatusBadRequest, "bad "+g.noun+" request: "+err.Error())
		return req, expansion{}, false
	}
	span.SetAttr("kernel", req.Kernel)
	x, err := req.expand(s.opt.PointBudget, g.maxSearch)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return req, x, false
	}

	// The full case answers at once, so clients back off instead of piling
	// onto a saturated simulator.
	adm := span.Child("admission-wait")
	free := reserve(g.active, g.limit)
	adm.EndSpan()
	if !free {
		s.rejected.Add(1)
		secs := int((s.opt.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		fail(http.StatusTooManyRequests, g.full)
		return req, x, false
	}
	code := http.StatusBadRequest
	if err = x.walk(); err == nil {
		span.SetAttr("points", x.points)
		s.mu.Lock()
		if s.closed {
			code, err = http.StatusServiceUnavailable, errors.New("server shutting down")
		} else {
			s.wg.Add(1)
		}
		s.mu.Unlock()
	}
	if err != nil {
		g.active.Add(-1)
		fail(code, err.Error())
		return req, x, false
	}
	return req, x, true
}

// reserve takes one of limit slots on n, or reports that all are held.
func reserve(n *atomic.Int64, limit int) bool {
	for {
		held := n.Load()
		if held >= int64(limit) {
			return false
		}
		if n.CompareAndSwap(held, held+1) {
			return true
		}
	}
}

// release hands back an admitted request's slot on active and its drain
// hold: a /sweep request's when it is answered, a job's when its goroutine
// exits.
func (s *Server) release(active *atomic.Int64) {
	active.Add(-1)
	s.wg.Done()
}

func spaceRecords(kernel string, sp dse.Space) []report.Record {
	rs := make([]*soc.RunResult, len(sp))
	for i, p := range sp {
		rs[i] = p.Res
	}
	return report.FromResults(kernel, rs)
}

// edpRecord returns sp's EDP optimum as a report record, or nil when sp is
// empty.
func edpRecord(kernel string, sp dse.Space) *report.Record {
	best, ok := sp.EDPOptimal()
	if !ok {
		return nil
	}
	rec := report.FromResult(kernel, best.Res)
	return &rec
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "kernel list is read-only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(machsuite.Names())
}

// Shutdown gracefully stops the service: new requests get 503, running
// jobs are interrupted, in-flight sweeps drain (bounded by ctx), then the
// workers exit. On ctx expiry the workers are still told to wind down, but
// stragglers are not awaited.
func (s *Server) Shutdown(ctx context.Context) error {
	lg := s.opt.Logger
	if lg != nil {
		lg.Info("shutdown: draining in-flight sweeps",
			"active", s.activeRequests.Load())
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	// Interrupt every job first, one admitted a moment ago included: their
	// goroutines release point claims, so workers skip the queued backlog
	// via the abandon path instead of simulating it during drain. Job
	// manifests stay "running" in the store — the resume signal for the
	// next boot. /sweep requests still drain normally below.
	s.stopJobs()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// With the drain done the workers skip the abandoned backlog and exit;
	// after a timed-out drain ctx is spent, so Close signals them to wind
	// down without awaiting stragglers.
	if cerr := s.eval.Close(ctx); err == nil {
		err = cerr
	}
	if lg != nil {
		if err != nil {
			lg.Warn("shutdown: drain timed out; workers abandoned", "err", err.Error())
		} else {
			lg.Info("shutdown complete",
				"points_simulated", s.eval.Stats().Simulated,
				"requests", s.requests.Load())
		}
	}
	return err
}

// Snapshot is a point-in-time copy of the service counters, for tests and
// programmatic health checks.
type Snapshot struct {
	Requests, Rejected                              uint64
	CacheHits, CacheMisses, WarmHits                uint64
	PointsSimulated, PointsAborted, PointsAbandoned uint64
	PointRetries                                    uint64
	JobsSubmitted, JobsCompleted, JobsResumed       uint64
	JobsFailed, JobsCancelled                       uint64
	ActiveRequests, ActiveJobs                      int64
	QueuedPoints, CacheEntries                      int
}

// Snapshot reads the counters.
func (s *Server) Snapshot() Snapshot {
	ev := s.eval.Stats()
	return Snapshot{
		Requests:        s.requests.Load(),
		Rejected:        s.rejected.Load(),
		CacheHits:       ev.Hits,
		CacheMisses:     ev.Simulated,
		WarmHits:        ev.WarmHits,
		PointsSimulated: ev.Simulated,
		PointsAborted:   ev.Aborted,
		PointsAbandoned: ev.Abandoned,
		PointRetries:    ev.Retries,
		JobsSubmitted:   s.jobsSubmitted.Load(),
		JobsCompleted:   s.jobsCompleted.Load(),
		JobsResumed:     s.jobsResumed.Load(),
		JobsFailed:      s.jobsFailed.Load(),
		JobsCancelled:   s.jobsCancelled.Load(),
		ActiveRequests:  s.activeRequests.Load(),
		ActiveJobs:      s.activeJobs.Load(),
		QueuedPoints:    ev.Queued,
		CacheEntries:    ev.Entries,
	}
}

// kernelFor resolves a kernel name to its (cached) compiled artifact.
// Building a trace is expensive — the kernel executes functionally while
// tracing — and compiling derives the shared scheduling products, so both
// happen once per kernel per server, concurrency-safe via sync.Once; every
// queued design point then shares the one read-only artifact.
func (s *Server) kernelFor(kernel string) (*soc.Compiled, error) {
	s.gmu.Lock()
	ge, ok := s.graphs[kernel]
	if !ok {
		ge = &graphEntry{}
		s.graphs[kernel] = ge
	}
	s.gmu.Unlock()
	ge.once.Do(func() {
		tr, err := s.opt.BuildKernel(kernel)
		if err != nil {
			ge.err = err
			return
		}
		ge.k = soc.Compile(ddg.Build(tr))
	})
	return ge.k, ge.err
}

type graphEntry struct {
	once sync.Once
	k    *soc.Compiled
	err  error
}
