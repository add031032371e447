package main

import (
	"context"
	"reflect"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/soc"
)

// gridSetups is how many times the grid set-up (compiling every kernel) is
// repeated; setup_s is the median.
const gridSetups = 5

// runGrid is the paper's study shape: every (kernel, memory system) design
// space swept over its stratified points with dse.Sweep and no store, one
// sweep at a time, in passes repeated until the window ends.
//
//	throughput_per_s  design points per second (median over passes)
//	latency_p50/p90   one dse.Sweep call
//	time_to_front_s   one pass, after which every front is known (median)
//	setup_s           compiling all kernels (median)
//
// Nothing carries over between passes, so every pass is a cold
// time-to-front, and time_to_front_s is the pass size over
// throughput_per_s.
func runGrid(e *env) (*outcome, error) {
	o := newOutcome()
	kernels := machsuite.Names()
	in := makeGridInput(e.seed, kernels)

	var ks map[string]*soc.Compiled
	var fes []frontEnd
	setup, err := medianSetup(gridSetups, func() error {
		var fe frontEnd
		var err error
		ks, fe, err = compileKernels(kernels, false)
		fes = append(fes, fe)
		return err
	}, func() {})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup

	type sweep struct {
		kernel string
		k      *soc.Compiled
		cfgs   []soc.Config
	}
	sweeps := make([]sweep, len(in.Sweeps))
	points := 0
	for i, pts := range in.Sweeps {
		sweeps[i].kernel = in.Strata[pts[0].Stratum].Kernel
		sweeps[i].k = ks[sweeps[i].kernel]
		for _, p := range pts {
			sweeps[i].cfgs = append(sweeps[i].cfgs, searchSpace(in.Strata[p.Stratum].Mem).Config(p.Idx))
		}
		points += len(pts)
	}

	watch := watchRuntime()
	root := e.spans.StartTrace("grid")
	var (
		sweepMS   []float64
		passS     []float64
		first     = make([]dse.Space, len(sweeps))
		firstWork string
		elapsed   time.Duration
		sweepSpan = map[uint64]int{} // traced: sweep span ID -> sweep
	)
	// A pass starts only if it is expected to end within the window.
	for pass := 0; pass == 0 || elapsed+elapsed/time.Duration(pass) <= e.window(); pass++ {
		ps := root.Child("pass")
		var passTime time.Duration
		work := newSimWork()
		for i, sw := range sweeps {
			span := ps.Child("dse.Sweep")
			span.SetAttr("kernel", sw.kernel)
			ctx := obs.WithSpan(context.Background(), span)
			t0 := time.Now()
			sp, err := dse.Sweep(ctx, sw.k, sw.cfgs, dse.SweepOptions{Workers: e.workers})
			d := time.Since(t0)
			span.EndSpan()
			if span != nil {
				sweepSpan[span.SpanID] = i
			}
			passTime += d
			sweepMS = append(sweepMS, float64(d)/1e6)
			o.attempted += len(sw.cfgs)
			switch {
			case err != nil:
				o.fail(len(sw.cfgs), "sweep of %s: %v", sw.kernel, err)
				continue
			case len(sp) != len(sw.cfgs):
				o.fail(len(sw.cfgs)-len(sp), "sweep of %s: %d of %d points aborted", sw.kernel, len(sw.cfgs)-len(sp), len(sw.cfgs))
			}
			for _, p := range sp {
				work.add(p.Res)
			}
			if pass == 0 {
				first[i] = sp
			}
		}
		ps.EndSpan()
		elapsed += passTime
		passS = append(passS, passTime.Seconds())
		if pass == 0 {
			firstWork = work.digest()
		} else if work.digest() != firstWork {
			o.fail(1, "pass %d results differ from pass 0", pass)
		}
	}
	root.EndSpan()
	watch.stop(o)
	o.e2e["time_to_front_s"] = median(passS)
	o.e2e["throughput_per_s"] = float64(points) / o.e2e["time_to_front_s"]
	latencyMetrics(o, [][]float64{sweepMS}, "one dse.Sweep")
	o.notef("grid: %d strata x %d points in %d sweeps, %d passes", len(in.Strata), gridPerStratum, len(sweeps), len(passS))

	// Correctness, outside the timed window: recompute one seeded point per
	// stratum with a fresh soc.Run and demand the sweep's result field for
	// field.
	var checkKs []*soc.Compiled
	var checkCfgs []soc.Config
	for _, ref := range in.Check {
		o.attempted++
		sw := sweeps[ref.Sweep]
		checkKs = append(checkKs, sw.k)
		checkCfgs = append(checkCfgs, sw.cfgs[ref.Pos])
		if len(first[ref.Sweep]) != len(sw.cfgs) {
			o.fail(1, "check %s: no sweep result", sw.kernel)
			continue
		}
		got, err := soc.Run(sw.k, sw.cfgs[ref.Pos])
		if err != nil {
			o.fail(1, "check %s point %d: %v", sw.kernel, ref.Pos, err)
			continue
		}
		if !reflect.DeepEqual(got, first[ref.Sweep][ref.Pos].Res) {
			o.fail(1, "check %s point %d: fresh soc.Run differs from dse.Sweep", sw.kernel, ref.Pos)
		}
	}

	if !e.traced() {
		return o, nil
	}
	_, counted, err := compileKernels(kernels, true)
	if err != nil {
		return nil, err
	}
	frontEndLayers(o, fes, counted)
	work := newSimWork()
	for _, sp := range first {
		for _, p := range sp {
			work.add(p.Res)
		}
	}
	work.report(o)
	if err := pointAllocs(checkKs, checkCfgs, o); err != nil {
		return nil, err
	}
	set, err := e.sink.spans()
	if err != nil {
		return nil, err
	}
	core := newCoreSpans()
	var busy, sweepTotal float64
	for id, i := range sweepSpan {
		sweepTotal += set.byID[id].ms()
		for _, p := range set.children[id] {
			idx, ok := p.num("index")
			if p.Name != "point" || !ok {
				continue
			}
			cfg := sweeps[i].cfgs[int(idx)]
			core.add(cfg.Mem, cfg.Fabric.Kind, p)
			busy += p.ms()
		}
	}
	core.report(o)
	o.layers["dse.worker_busy_frac"] = busy / (float64(e.workers) * sweepTotal)
	return o, nil
}
