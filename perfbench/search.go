package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
)

// searchSetups is how many times the search set-up (compiling the kernels
// and opening a fresh store) is repeated; setup_s is the median.
const searchSetups = 8

// searchLatencyWindow is the number of replayed dse.Search calls, about a
// second of the run, over which each latency percentile is taken.
const searchLatencyWindow = 100

// runSearch runs dse.Search over every kernel of searchKernels. Each cold
// pass searches every kernel under fresh seeds against a fresh durable
// store, simulating and writing through; then replay passes rerun the cold
// passes' searches in turn, each against its own store under fresh
// checkpoint keys, so every evaluation is a store hit, until the window
// ends.
//
//	throughput_per_s  evaluated points per second (median over replay passes)
//	latency_p50/p90   one replayed dse.Search call (median over windows of 100 calls)
//	time_to_front_s   one cold pass, every kernel's front found (mean)
//	setup_s           compiling the kernels and opening a store (median)
func runSearch(e *env) (*outcome, error) {
	o := newOutcome()
	in := makeSearchInput(e.seed)
	names := make([]string, len(searchKernels))
	for i, sk := range searchKernels {
		names[i] = sk.Kernel
	}

	var (
		ks     map[string]*soc.Compiled
		st     *store.Store
		fes    []frontEnd
		openMS []float64
	)
	openStore := func() error {
		t0 := time.Now()
		var err error
		st, err = store.Open(filepath.Join(e.dir, fmt.Sprintf("store-%d", len(openMS))), store.Options{})
		openMS = append(openMS, float64(time.Since(t0))/1e6)
		return err
	}
	setup, err := medianSetup(searchSetups, func() error {
		var fe frontEnd
		var err error
		if ks, fe, err = compileKernels(names, false); err != nil {
			return err
		}
		fes = append(fes, fe)
		return openStore()
	}, func() { st.Close() })
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup

	spaces := make([]dse.SearchSpace, len(searchKernels))
	for i, sk := range searchKernels {
		spaces[i] = searchSpace(sk.Mem)
	}
	search := func(parent *obs.Span, pass, i int, db *store.Store, key string) (*dse.SearchResult, time.Duration, *obs.Span, error) {
		span := parent.Child("dse.Search")
		span.SetAttr("kernel", names[i])
		ctx := obs.WithSpan(context.Background(), span)
		t0 := time.Now()
		res, err := dse.Search(ctx, ks[names[i]], spaces[i], dse.SearchOptions{
			Seed:          in.Seeds[pass][i],
			Budget:        searchBudget,
			InitSamples:   searchInit,
			RoundSize:     searchRound,
			Patience:      searchBudget, // never stop early: every search evaluates the whole budget
			Workers:       e.workers,
			Cache:         &dse.StoreCache{Kernel: names[i], Store: db},
			CheckpointKey: key,
		})
		d := time.Since(t0)
		span.EndSpan()
		return res, d, span, err
	}

	watch := watchRuntime()
	root := e.spans.StartTrace("search")
	stores := []*store.Store{st}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cold := make([][]*dse.SearchResult, searchColdPasses)
	var coldS []float64
	for pass := range cold {
		if pass > 0 {
			if err := openStore(); err != nil {
				return nil, err
			}
			stores = append(stores, st)
		}
		ps := root.Child("cold-pass")
		ps.SetAttr("pass", pass)
		var passTime time.Duration
		for i := range searchKernels {
			res, d, _, err := search(ps, pass, i, st, "perfbench/cold/"+names[i])
			passTime += d
			o.attempted += searchBudget
			if err != nil {
				return nil, fmt.Errorf("cold search of %s: %w", names[i], err)
			}
			cold[pass] = append(cold[pass], res)
			if n := failedPoints(res); n > 0 {
				o.fail(n, "cold pass %d of %s: %d candidates failed", pass, names[i], n)
			}
		}
		ps.EndSpan()
		coldS = append(coldS, passTime.Seconds())
	}
	o.e2e["time_to_front_s"] = mean(coldS)

	var (
		replayMS    []float64
		rates       []float64
		replaySpans []*obs.Span
		passes      int
		elapsed     time.Duration
	)
	for _, s := range coldS {
		elapsed += time.Duration(s * float64(time.Second))
	}
	for ; passes == 0 || elapsed < e.window(); passes++ {
		ps := root.Child("replay-pass")
		cp := passes % searchColdPasses
		var passTime time.Duration
		evaluated := 0
		for i := range searchKernels {
			res, d, span, err := search(ps, cp, i, stores[cp], fmt.Sprintf("perfbench/replay/%d/%s", passes, names[i]))
			elapsed += d
			o.attempted += searchBudget
			if err != nil {
				o.fail(searchBudget, "replay %d of %s: %v", passes, names[i], err)
				continue
			}
			replayMS = append(replayMS, float64(d)/1e6)
			passTime += d
			evaluated += res.Evaluated
			if span != nil {
				replaySpans = append(replaySpans, span)
			}
			// Correctness, untimed: a replay simulates nothing and walks
			// the cold pass's archive to the same front.
			if res.Simulated != 0 {
				o.fail(res.Simulated, "replay %d of %s simulated %d points", passes, names[i], res.Simulated)
			}
			if n := failedPoints(res); n > 0 {
				o.fail(n, "replay %d of %s: %d candidates failed", passes, names[i], n)
			}
			if !reflect.DeepEqual(res.Points, cold[cp][i].Points) || !sameFront(res.Front, cold[cp][i].Front) {
				o.fail(searchBudget, "replay %d of %s differs from the cold pass", passes, names[i])
			}
		}
		ps.EndSpan()
		if passTime > 0 {
			rates = append(rates, float64(evaluated)/passTime.Seconds())
		}
	}
	root.EndSpan()
	watch.stop(o)
	o.e2e["throughput_per_s"] = median(rates)
	latencyMetrics(o, latencyWindows(replayMS, searchLatencyWindow), "one replayed dse.Search")
	o.notef("search: %d kernels x budget %d, cold passes %.4g s, %d replay passes",
		len(searchKernels), searchBudget, coldS, passes)

	if e.traced() {
		if err := searchLayers(e, o, ks, names, spaces, cold, stores, fes, openMS, replaySpans); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// failedPoints counts a search's candidates that aborted or errored.
func failedPoints(res *dse.SearchResult) int {
	n := 0
	for _, p := range res.Points {
		if p.Failed {
			n++
		}
	}
	return n
}

// storeLayers reports the summed statistics of a run's stores.
func storeLayers(o *outcome, stats []store.Stats) {
	var sum store.Stats
	for _, ss := range stats {
		sum.Puts += ss.Puts
		sum.Gets += ss.Gets
		sum.Hits += ss.Hits
		sum.TotalBytes += ss.TotalBytes
		sum.Compactions += ss.Compactions
	}
	o.layers["store.puts"] = float64(sum.Puts)
	o.layers["store.gets"] = float64(sum.Gets)
	if sum.Gets > 0 {
		o.layers["store.hit_ratio"] = float64(sum.Hits) / float64(sum.Gets)
	}
	o.layers["store.total_bytes"] = float64(sum.TotalBytes)
	o.layers["store.compactions"] = float64(sum.Compactions)
}

// sameFront compares two fronts through their encoded results, which a
// store round trip preserves exactly.
func sameFront(a, b dse.Space) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ja, err1 := json.Marshal(a[i].Res)
		jb, err2 := json.Marshal(b[i].Res)
		if err1 != nil || err2 != nil || string(ja) != string(jb) {
			return false
		}
	}
	return true
}

func searchLayers(e *env, o *outcome, ks map[string]*soc.Compiled, names []string, spaces []dse.SearchSpace,
	cold [][]*dse.SearchResult, stores []*store.Store, fes []frontEnd, openMS []float64, replaySpans []*obs.Span) error {
	_, counted, err := compileKernels(names, true)
	if err != nil {
		return err
	}
	frontEndLayers(o, fes, counted)
	o.layers["store.open_ms"] = median(openMS)

	// Simulated work of the cold passes, read back from their stores.
	work := newSimWork()
	var allocCfgs []soc.Config
	var allocKs []*soc.Compiled
	for pass, results := range cold {
		for i, res := range results {
			o.layers["dse.search_rounds"] += float64(res.Rounds)
			o.layers["dse.search_simulated"] += float64(res.Simulated)
			o.layers["dse.search_front_size"] += float64(len(res.Front))
			cache := &dse.StoreCache{Kernel: names[i], Store: stores[pass]}
			for j, p := range res.Points {
				if p.Failed {
					continue
				}
				cfg := spaces[i].Config(p.Idx)
				cp, ok, err := cache.Get(cfg)
				if err != nil || !ok || cp.Aborted {
					return fmt.Errorf("cold point of %s missing from the store", names[i])
				}
				work.add(cp.Result)
				if pass == 0 && j < 4 {
					allocCfgs = append(allocCfgs, cfg)
					allocKs = append(allocKs, ks[names[i]])
				}
			}
		}
	}
	work.report(o)

	var stats []store.Stats
	for _, st := range stores {
		stats = append(stats, st.Stats())
	}
	storeLayers(o, stats)

	set, err := e.sink.spans()
	if err != nil {
		return err
	}
	// Cold passes: simulated points by stratum, and the pool's busy share.
	core := newCoreSpans()
	var busy, roundTotal float64
	for _, call := range set.named("dse.Search") {
		p := set.byID[call.Parent]
		if p == nil || p.Name != "cold-pass" {
			continue
		}
		pass, _ := p.num("pass")
		ki := slices.Index(names, call.str("kernel"))
		// Rounds evaluate contiguous slices of the archive in order.
		rounds := set.children[call.Span]
		offset := 0
		slices.SortFunc(rounds, func(a, b *spanRec) int { return a.Start.Compare(b.Start) })
		for _, r := range rounds {
			if r.Name != "search-round" {
				continue
			}
			roundTotal += r.ms()
			for _, p := range set.children[r.Span] {
				idx, _ := p.num("index")
				busy += p.ms()
				cfg := spaces[ki].Config(cold[int(pass)][ki].Points[offset+int(idx)].Idx)
				core.add(cfg.Mem, cfg.Fabric.Kind, p)
			}
			n, _ := r.num("candidates")
			offset += int(n)
		}
	}
	core.report(o)
	if roundTotal > 0 {
		o.layers["dse.worker_busy_frac"] = busy / (float64(e.workers) * roundTotal)
	}

	// Replay: the engine's self time per call and the cost of a stored point.
	var engineMS, lookupUS []float64
	for _, sp := range replaySpans {
		call := set.byID[sp.SpanID]
		var rounds time.Duration
		for _, r := range set.children[call.Span] {
			if r.Name == "search-round" {
				rounds += r.dur()
				for _, p := range set.children[r.Span] {
					if p.flag("cached") {
						lookupUS = append(lookupUS, p.DurUS)
					}
				}
			}
		}
		engineMS = append(engineMS, float64(call.dur()-rounds)/1e6)
	}
	o.layers["dse.search_engine_ms"] = median(engineMS)
	o.layers["dse.store_lookup_us"] = median(lookupUS)

	return pointAllocs(allocKs, allocCfgs, o)
}
