package dse

// The point-evaluation engine. Every way this module evaluates design
// points — Sweep, Search, EDPImprovement, the paper figures, and the sweep
// service's requests and jobs — runs them through one Evaluator: a fixed
// pool of workers, each reusing one soc.Runner, draining a FIFO queue of
// content-addressed points.

import (
	"context"
	"errors"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
)

// KindError is the failure class of a point whose simulation returned a
// genuine error rather than a robustness abort (whose classes are the
// soc.Abort* labels).
const KindError = "error"

// errAbandoned resolves a queued point every caller released before a
// worker reached it: the point was never simulated. No live caller can
// observe it — abandonment requires zero waiters — it exists so the point's
// done channel closes exactly once.
var errAbandoned = errors.New("dse: design point abandoned before simulation")

// EvaluatorOptions configures an Evaluator. The zero value is a GOMAXPROCS
// pool with no store and no retries.
type EvaluatorOptions struct {
	// Workers sizes the fixed pool; <= 0 selects GOMAXPROCS. Each worker
	// owns one reused soc.Runner, so the simulation state warmed up on one
	// point is recycled on the next — the pool exists for that reuse, not
	// just to bound concurrency.
	Workers int
	// Store, when non-nil, is read before a point simulates, and every
	// fresh outcome — a result or a classified abort, never a genuine
	// error — is written to it before the point's waiters are released.
	Store *store.Store
	// CacheEntries bounds the in-memory outcome cache; the oldest completed
	// points are evicted FIFO past it. <= 0 selects 65536.
	CacheEntries int
	// Retry bounds the retries of fault-injection aborts.
	Retry RetryPolicy
	// Logger receives store-write failures and slow-point warnings; nil
	// disables logging.
	Logger *slog.Logger
	// SlowPoint is the simulation time beyond which a point is logged as
	// slow; zero disables the warning.
	SlowPoint time.Duration
}

// Outcome is the evaluation of one design point: a result, or a classified
// failure with the attempts the retry policy spent on it.
type Outcome struct {
	// Res is the simulation result; nil when the point failed.
	Res *soc.RunResult
	// Kind classifies a failure: a soc.Abort* label for a robustness abort
	// (cached and persisted like a result), or KindError for a genuine
	// error (never cached: the next evaluation tries again). Err carries
	// the failure's message, identical whether the outcome was simulated
	// or replayed from the store.
	Kind     string
	Err      error
	Attempts int
	// Simulated reports that this caller queued the point and a worker
	// simulated it. Memory hits, joins of points other callers queued, and
	// store replays cost the caller no simulation.
	Simulated bool
}

// EvaluatorStats is a point-in-time copy of an evaluator's counters.
type EvaluatorStats struct {
	// Hits counts points served without a new simulation: memory hits,
	// joins of in-flight points, and store replays. WarmHits counts the
	// store replays alone.
	Hits, WarmHits uint64
	// Simulated counts points simulated, Aborted the simulated points the
	// robustness layer poisoned, and Retries the fault-abort retries spent.
	Simulated, Aborted, Retries uint64
	// Abandoned counts queued points skipped because every caller released
	// them first.
	Abandoned uint64
	// Queued counts points awaiting a worker; Entries the points resident
	// in the memory cache.
	Queued, Entries int
}

// Evaluator is the one point-evaluation engine. Points are keyed by
// PointKey(kernel, cfg): concurrent callers asking for the same point share
// one evaluation (singleflight), completed outcomes stay in a bounded
// memory cache, and with a store they survive the process. Create with
// NewEvaluator and stop with Close.
type Evaluator struct {
	opt  EvaluatorOptions
	quit chan struct{} // closed by Close: ends retry backoffs
	wg   sync.WaitGroup

	// mu guards the queue, the cache, claim IDs and the waiter counts of
	// unfinished entries; cond wakes workers when the queue grows or Close
	// begins.
	mu         sync.Mutex
	cond       *sync.Cond
	queue      []*entry
	qhead      int
	cache      map[string]*entry
	evictOrder []string
	evictHead  int
	closing    bool
	claims     uint64

	hits, warmHits, simulated, aborted, retries, abandoned atomic.Uint64
}

// entry is one content-addressed design point, the unit of caching and of
// singleflight: the first caller to need a point creates and queues it;
// later callers join it. out is final once done closes — the close is the
// happens-before edge, so readers then need no lock.
type entry struct {
	key string
	k   *soc.Compiled
	cfg soc.Config

	done      chan struct{}
	out       Outcome
	simulated bool // out came from a simulation, not the store

	owner   uint64 // ID of the claim that created the entry
	waiters int    // guarded by Evaluator.mu until done closes

	// Tracing, written at creation and then read only by the claiming
	// worker. parent and index place a point span on the worker's track
	// (Evaluate); span and qspan are the point and queue-wait spans Submit
	// opens at creation. All are nil when the creator ran untraced.
	parent      *obs.Span
	index       int
	span, qspan *obs.Span
}

// NewEvaluator starts an evaluator's worker pool.
func NewEvaluator(opt EvaluatorOptions) *Evaluator {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.CacheEntries <= 0 {
		opt.CacheEntries = 1 << 16
	}
	ev := &Evaluator{opt: opt, quit: make(chan struct{}), cache: make(map[string]*entry)}
	ev.cond = sync.NewCond(&ev.mu)
	ev.wg.Add(opt.Workers)
	for track := 1; track <= opt.Workers; track++ {
		go ev.worker(track)
	}
	return ev
}

// Close stops the pool: workers finish the queued points some caller still
// waits on, skip the rest, and exit, and a retry backoff in progress ends
// at once. Close waits for the workers until ctx is done. Nothing runs
// points submitted after Close.
func (ev *Evaluator) Close(ctx context.Context) error {
	ev.mu.Lock()
	if !ev.closing {
		ev.closing = true
		close(ev.quit)
		ev.cond.Broadcast()
	}
	ev.mu.Unlock()
	exited := make(chan struct{})
	go func() {
		ev.wg.Wait()
		close(exited)
	}()
	select {
	case <-exited:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats reads the counters.
func (ev *Evaluator) Stats() EvaluatorStats {
	ev.mu.Lock()
	queued, entries := len(ev.queue)-ev.qhead, len(ev.cache)
	ev.mu.Unlock()
	return EvaluatorStats{
		Hits:      ev.hits.Load(),
		WarmHits:  ev.warmHits.Load(),
		Simulated: ev.simulated.Load(),
		Aborted:   ev.aborted.Load(),
		Retries:   ev.retries.Load(),
		Abandoned: ev.abandoned.Load(),
		Queued:    queued,
		Entries:   entries,
	}
}

// Claim is one caller's hold on the points it submitted: the outcome of
// point i is final once Done(i) closes. Release drops the hold, so workers
// skip queued points no caller still wants.
type Claim struct {
	ev      *Evaluator
	id      uint64
	entries []*entry // by config index; duplicate configs share an entry
	uniq    []*entry // distinct entries, in first-occurrence order
	held    []*entry // entries this claim counts as a waiter of
}

// Submit queues every point of cfgs that no caller has evaluated or queued
// and returns the caller's claim on all of them; the caller must Release
// it. kernel names k in the point keys, so one evaluator serves many
// kernels without aliasing. When ctx carries an obs span, each point this
// call queues gets a `point` span under it, opened now on the point's own
// track (i+1), with a `queue-wait` child until a worker claims it and a
// `simulate` child for the run: a traced request renders one row per point.
func (ev *Evaluator) Submit(ctx context.Context, kernel string, k *soc.Compiled, cfgs []soc.Config) *Claim {
	return ev.submit(ctx, k, cfgs, pointKeys(kernel, cfgs), true)
}

// Evaluate evaluates every config and returns one outcome per config, in
// order: the synchronous form of Submit that Sweep and Search run on.
// progress, when non-nil, is called from the calling goroutine with
// (done, total) as each outcome becomes final, in config order. When ctx
// carries an obs span, each point this call queues gets a `point` span
// under it on the claiming worker's track, from claim to outcome: a traced
// sweep renders one row per worker.
//
// Cancellation releases the call's points — queued ones no other caller
// wants are skipped — and returns ctx.Err() with no outcomes. A point
// already simulating finishes: a run is never interrupted mid-simulation.
func (ev *Evaluator) Evaluate(ctx context.Context, kernel string, k *soc.Compiled, cfgs []soc.Config, progress func(done, total int)) ([]Outcome, error) {
	return ev.evaluateKeyed(ctx, k, cfgs, pointKeys(kernel, cfgs), progress)
}

// evaluateKeyed is Evaluate over cfgs whose point keys the caller holds:
// keys[i] is PointKey(kernel, cfgs[i]).
func (ev *Evaluator) evaluateKeyed(ctx context.Context, k *soc.Compiled, cfgs []soc.Config, keys []string, progress func(done, total int)) ([]Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := ev.submit(ctx, k, cfgs, keys, false)
	defer c.Release()
	outs := make([]Outcome, len(cfgs))
	for i := range cfgs {
		select {
		case <-c.Done(i):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		outs[i] = c.Outcome(i)
		if progress != nil {
			progress(i+1, len(cfgs))
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return outs, nil
}

// pointKeys returns PointKey(kernel, cfg) for each of cfgs.
func pointKeys(kernel string, cfgs []soc.Config) []string {
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = PointKey(kernel, cfg)
	}
	return keys
}

// submit queues cfgs under their point keys, keys[i] for cfgs[i].
func (ev *Evaluator) submit(ctx context.Context, k *soc.Compiled, cfgs []soc.Config, keys []string, perPointSpans bool) *Claim {
	parent := obs.SpanFromContext(ctx)
	c := &Claim{ev: ev, entries: make([]*entry, len(cfgs))}
	mine := make(map[string]*entry, len(cfgs))
	ev.mu.Lock()
	defer ev.mu.Unlock()
	ev.claims++
	c.id = ev.claims
	for i, key := range keys {
		if e, dup := mine[key]; dup {
			c.entries[i] = e
			continue
		}
		e, ok := ev.cache[key]
		if ok {
			ev.hits.Add(1)
			select {
			case <-e.done:
			default:
				e.waiters++
				c.held = append(c.held, e)
			}
		} else {
			e = &entry{key: key, k: k, cfg: cfgs[i], done: make(chan struct{}),
				owner: c.id, waiters: 1, index: i}
			if perPointSpans {
				e.span = parent.ChildOn("point", i+1)
				e.span.SetAttr("key", shortKey(key))
				e.span.SetAttr("lanes", cfgs[i].Lanes)
				e.qspan = e.span.Child("queue-wait")
			} else {
				e.parent = parent
			}
			ev.cache[key] = e
			ev.queue = append(ev.queue, e)
			ev.cond.Signal()
			c.held = append(c.held, e)
		}
		mine[key] = e
		c.entries[i] = e
		c.uniq = append(c.uniq, e)
	}
	return c
}

// Done returns a channel closed once point i's outcome is final.
func (c *Claim) Done(i int) <-chan struct{} { return c.entries[i].done }

// Outcome returns point i's outcome; call it only after Done(i) closes.
func (c *Claim) Outcome(i int) Outcome {
	e := c.entries[i]
	out := e.out
	out.Simulated = e.simulated && e.owner == c.id
	return out
}

// Cached counts the claim's distinct points that cost it no simulation:
// every one it did not queue itself, or that the store served. Call it
// once every point is final.
func (c *Claim) Cached() int {
	n := 0
	for _, e := range c.uniq {
		if !e.simulated || e.owner != c.id {
			n++
		}
	}
	return n
}

// Release drops the claim's hold on its unfinished points, so a worker
// reaching a queued point nobody holds skips it. Idempotent.
func (c *Claim) Release() {
	c.ev.mu.Lock()
	for _, e := range c.held {
		e.waiters--
	}
	c.held = nil
	c.ev.mu.Unlock()
}

// worker drains the queue on one reused soc.Runner until Close empties it.
func (ev *Evaluator) worker(track int) {
	defer ev.wg.Done()
	var r soc.Runner
	for {
		ev.mu.Lock()
		e := ev.dequeue()
		if e == nil {
			ev.mu.Unlock()
			return
		}
		if e.waiters == 0 {
			// Every caller released the point before a worker reached it:
			// forget it, so the slot goes to live work and a later caller
			// evaluates the point afresh.
			delete(ev.cache, e.key)
			e.out = Outcome{Kind: KindError, Err: errAbandoned}
			close(e.done)
			ev.mu.Unlock()
			ev.abandoned.Add(1)
			e.qspan.EndSpan()
			e.span.SetAttr("abandoned", true)
			e.span.EndSpan()
			continue
		}
		ev.mu.Unlock()
		ev.evaluate(&r, e, track)
	}
}

// dequeue pops the oldest queued entry, blocking until one is queued or
// Close has begun; nil means closing with an empty queue. The queue is a
// head-indexed compacting FIFO: popped slots are nilled (no retention) and
// the backing array is reused once the consumed prefix dominates. Callers
// hold ev.mu.
func (ev *Evaluator) dequeue() *entry {
	for len(ev.queue) == ev.qhead && !ev.closing {
		ev.cond.Wait()
	}
	if ev.qhead == len(ev.queue) {
		return nil
	}
	e := ev.queue[ev.qhead]
	ev.queue[ev.qhead] = nil
	ev.qhead++
	if ev.qhead > 64 && ev.qhead*2 > len(ev.queue) {
		n := copy(ev.queue, ev.queue[ev.qhead:])
		clear(ev.queue[n:])
		ev.queue = ev.queue[:n]
		ev.qhead = 0
	}
	return e
}

// evaluate resolves one claimed point: from the store when it holds the
// outcome, else by simulation. A fresh outcome is persisted before any
// waiter is released, so once a caller observes it a SIGKILL cannot lose it
// (modulo the store's fsync batching).
func (ev *Evaluator) evaluate(r *soc.Runner, e *entry, track int) {
	span := e.span
	if span == nil {
		span = e.parent.ChildOn("point", track)
		span.SetAttr("index", e.index)
		span.SetAttr("lanes", e.cfg.Lanes)
	}
	e.qspan.EndSpan()

	out, warm := ev.load(e.key)
	keep := true // cache the outcome in memory
	if warm {
		span.SetAttr("cached", true)
		ev.hits.Add(1)
		ev.warmHits.Add(1)
	} else {
		sim := span.Child("simulate")
		started := time.Now()
		var interrupted bool
		out, interrupted = ev.run(r, e.k, e.cfg)
		elapsed := time.Since(started)
		if out.Res != nil {
			sim.SetAttr("cycles", out.Res.Cycles)
		}
		sim.EndSpan()
		ev.simulated.Add(1)
		ev.retries.Add(uint64(out.Attempts - 1))
		if out.Res == nil && out.Kind != KindError {
			ev.aborted.Add(1)
		}
		// A genuine error may be environmental, and an interrupted retry
		// loop did not spend its budget: neither is cached or persisted, so
		// the next caller evaluates the point afresh.
		keep = out.Kind != KindError && !interrupted
		if keep {
			ev.persist(e.key, out)
		}
		if lg := ev.opt.Logger; lg != nil && ev.opt.SlowPoint > 0 && elapsed > ev.opt.SlowPoint {
			lg.LogAttrs(context.Background(), slog.LevelWarn, "slow design point",
				slog.String("key", e.key),
				slog.Int64("elapsed_ms", elapsed.Milliseconds()),
				slog.Int("lanes", e.cfg.Lanes),
				slog.String("mem", e.cfg.Mem.String()))
		}
	}
	switch {
	case out.Res != nil:
		span.SetAttr("cycles", out.Res.Cycles)
	case out.Kind == KindError:
		span.SetAttr("error", out.Err.Error())
	default:
		span.SetAttr("aborted", true)
		span.SetAttr("kind", out.Kind)
	}
	span.EndSpan()

	ev.mu.Lock()
	e.out, e.simulated = out, !warm
	if keep {
		ev.finished(e.key)
	} else {
		delete(ev.cache, e.key)
	}
	close(e.done)
	ev.mu.Unlock()
}

// run simulates one point under the retry policy.
// Only fault-injection aborts retry: stalls and sanitizer violations are
// deterministic properties of the config. Close ends a backoff at once, and
// the truncated outcome is reported as interrupted.
func (ev *Evaluator) run(r *soc.Runner, k *soc.Compiled, cfg soc.Config) (out Outcome, interrupted bool) {
	p := ev.opt.Retry
	for {
		out.Attempts++
		res, err := r.Run(k, cfg)
		if err == nil {
			out.Res = res
			return out, false
		}
		out.Err = err
		if out.Kind = soc.AbortKind(err); out.Kind == "" {
			out.Kind = KindError
		}
		if !p.Retryable(out.Kind) || out.Attempts > p.Max {
			return out, false
		}
		t := time.NewTimer(p.Delay(out.Attempts))
		select {
		case <-ev.quit:
			t.Stop()
			return out, true
		case <-t.C:
		}
	}
}

// load reads the stored outcome of a point. A missing, corrupt or
// foreign-schema record, or a failed read, is a miss: the point simulates
// and its record is overwritten.
func (ev *Evaluator) load(key string) (Outcome, bool) {
	if ev.opt.Store == nil {
		return Outcome{}, false
	}
	cp, ok, _ := loadPoint(ev.opt.Store, key)
	switch {
	case !ok:
		return Outcome{}, false
	case cp.Aborted:
		return Outcome{Kind: cp.Kind, Err: errors.New(cp.Err), Attempts: cp.Attempts}, true
	}
	return Outcome{Res: cp.Result}, true
}

// persist writes a fresh outcome through to the store. A failed write costs
// only a future re-simulation, so it is logged, not returned.
func (ev *Evaluator) persist(key string, out Outcome) {
	if ev.opt.Store == nil {
		return
	}
	cp := &CachedPoint{Result: out.Res}
	if out.Res == nil {
		cp = &CachedPoint{Aborted: true, Kind: out.Kind, Err: out.Err.Error(), Attempts: out.Attempts}
	}
	if err := storePoint(ev.opt.Store, key, cp); err != nil && ev.opt.Logger != nil {
		ev.opt.Logger.Warn("store write failed", "key", shortKey(key), "err", err.Error())
	}
}

// finished records a completed key for FIFO eviction and evicts the oldest
// completed points past the cache bound. Callers hold ev.mu.
//
// Pops advance evictHead instead of reslicing: a reslice strands the
// consumed prefix in the backing array for the evaluator's life (append can
// never reuse it), so a long-lived evaluator under sustained eviction would
// retain one slot per point ever evicted. The head region is compacted on
// the same policy as the work queue (dequeue).
func (ev *Evaluator) finished(key string) {
	ev.evictOrder = append(ev.evictOrder, key)
	for len(ev.evictOrder)-ev.evictHead > ev.opt.CacheEntries {
		victim := ev.evictOrder[ev.evictHead]
		ev.evictOrder[ev.evictHead] = "" // release the key string
		ev.evictHead++
		delete(ev.cache, victim)
	}
	if ev.evictHead > 64 && ev.evictHead*2 > len(ev.evictOrder) {
		n := copy(ev.evictOrder, ev.evictOrder[ev.evictHead:])
		clear(ev.evictOrder[n:])
		ev.evictOrder = ev.evictOrder[:n]
		ev.evictHead = 0
	}
}

// shortKey abbreviates a point key for span attributes and log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
