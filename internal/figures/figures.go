// Package figures regenerates every table and figure of the paper's
// evaluation from the simulator. Each FigN function prints the rows or
// series the corresponding plot reports, so the paper's claims can be
// re-derived (and diffed in EXPERIMENTS.md) from a single command:
//
//	go run ./cmd/figures -fig all
//
// The functions accept a Quick flag that prunes sweep axes for fast runs;
// the full sweeps match the Fig 3 parameter table.
//
// Every figure that simulates evaluates its design points on the
// dse.Evaluator its caller passes in, keyed by benchmark name. A caller
// holds one evaluator for a whole regeneration, so a point that several
// figures read (Fig 8's grids are Figs 9 and 10's scenario grids, Fig 4
// and Summary share the validation runs) simulates once and is a memory
// hit afterwards. Results are shared between figures and never modified.
package figures

import (
	"context"
	"fmt"
	"io"
	"sync"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/golden"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/stats"
	"gem5aladdin/internal/trace"
)

// Fig8Benchmarks is the eight-benchmark subset of Figs 8-10, chosen by the
// paper to span the design-space characteristics, ordered by DMA-vs-cache
// preference as in Fig 8.
func Fig8Benchmarks() []string {
	return []string{
		"aes-aes", "nw-nw", "gemm-ncubed", "stencil-stencil2d",
		"stencil-stencil3d", "md-knn", "spmv-crs", "fft-transpose",
	}
}

// Fig6Benchmarks is the DMA-optimization subset of Fig 6 (benchmarks
// spanning the Fig 2b movement range).
func Fig6Benchmarks() []string {
	return []string{
		"aes-aes", "nw-nw", "gemm-ncubed", "stencil-stencil2d",
		"md-knn", "spmv-crs", "fft-transpose",
	}
}

var (
	graphMu     sync.Mutex
	kernelCache = map[string]*soc.Compiled{}
)

// Kernel builds, compiles, and memoizes the artifact for a benchmark. Every
// figure draws from this one cache, so each benchmark is traced and
// compiled exactly once per process no matter how many figures sweep it.
func Kernel(name string) (*soc.Compiled, error) {
	graphMu.Lock()
	defer graphMu.Unlock()
	if k, ok := kernelCache[name]; ok {
		return k, nil
	}
	b, err := machsuite.ByName(name)
	if err != nil {
		return nil, err
	}
	tr, err := b.Build()
	if err != nil {
		return nil, err
	}
	k := soc.Compile(ddg.Build(tr))
	kernelCache[name] = k
	return k, nil
}

// Graph builds (and memoizes) the DDDG for a benchmark.
func Graph(name string) (*ddg.Graph, error) {
	k, err := Kernel(name)
	if err != nil {
		return nil, err
	}
	return k.Graph(), nil
}

// evaluate evaluates the named benchmark's configs on ev and returns their
// results in config order. A point without a result fails the call with
// its error, as soc.Run would.
func evaluate(ev *dse.Evaluator, name string, cfgs ...soc.Config) ([]*soc.RunResult, error) {
	k, err := Kernel(name)
	if err != nil {
		return nil, err
	}
	outs, err := ev.Evaluate(context.Background(), name, k, cfgs, nil)
	if err != nil {
		return nil, err
	}
	res := make([]*soc.RunResult, len(outs))
	for i, o := range outs {
		if o.Res == nil {
			return nil, o.Err
		}
		res[i] = o.Res
	}
	return res, nil
}

func pctOf(part, whole sim.Tick) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Fig1 regenerates the motivating stencil3d design-space comparison:
// isolated vs co-designed (DMA, 32-bit bus) scatter with EDP optima.
func Fig1(w io.Writer, ev *dse.Evaluator, quick bool) error {
	const name = "stencil-stencil3d"
	k, err := Kernel(name)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1: stencil3d design space, isolated vs co-designed (DMA/32b)")
	for _, mem := range []soc.MemKind{soc.Isolated, soc.DMA} {
		base := soc.DefaultConfig()
		base.Mem = mem
		cfgs := dse.GridSpace(base, !quick, nil).Grid()
		space, err := ev.Sweep(context.Background(), name, k, cfgs, nil)
		if err != nil {
			return err
		}
		best, ok := space.EDPOptimal()
		if !ok {
			return fmt.Errorf("figures: fig 1 %s sweep: %w", mem, dse.ErrEmptySpace)
		}
		tb := stats.NewTable("design", "lanes", "banks", "time(us)", "power(mW)", "EDP(nJ*s)", "")
		for _, p := range space {
			mark := ""
			if p.Cfg == best.Cfg {
				mark = "<-- EDP optimal"
			}
			tb.Row(mem.String(), p.Cfg.Lanes, p.Cfg.Partitions,
				p.Res.Seconds()*1e6, p.Res.AvgPowerW*1e3, p.Res.EDPJs*1e9, mark)
		}
		tb.Render(w)
		fmt.Fprintln(w)
	}
	return nil
}

// Fig2a regenerates the md-knn execution timeline at 16 lanes under the
// baseline DMA flow (the Zedboard measurement of Fig 2a).
func Fig2a(w io.Writer, ev *dse.Evaluator) error {
	cfg := soc.DefaultConfig()
	cfg.Lanes, cfg.Partitions = 16, 16
	cfg.PipelinedDMA, cfg.DMATriggered = false, false
	rs, err := evaluate(ev, "md-knn", cfg)
	if err != nil {
		return err
	}
	r := rs[0]
	fmt.Fprintln(w, "Figure 2a: md-knn baseline-DMA timeline, 16 lanes")
	fmt.Fprintf(w, "timeline: %s\n", report.TimelineASCII(r, 72))
	fmt.Fprintln(w, "          (F flush, D dma, O overlap, C compute, . idle)")
	tb := stats.NewTable("phase", "time(us)", "% of total")
	b := r.Breakdown
	tb.Row("flush", float64(b.FlushOnly)/1e6, pctOf(b.FlushOnly, r.Runtime))
	tb.Row("dma", float64(b.DMAFlush)/1e6, pctOf(b.DMAFlush, r.Runtime))
	tb.Row("compute", float64(b.ComputeOnly+b.ComputeDMA)/1e6,
		pctOf(b.ComputeOnly+b.ComputeDMA, r.Runtime))
	tb.Row("other", float64(b.Idle)/1e6, pctOf(b.Idle, r.Runtime))
	tb.Row("total", r.Seconds()*1e6, 100.0)
	tb.Render(w)
	return nil
}

// Fig2b regenerates the MachSuite-wide movement breakdown at 16-way
// parallelism under the baseline DMA flow.
func Fig2b(w io.Writer, ev *dse.Evaluator) error {
	fmt.Fprintln(w, "Figure 2b: flush/DMA/compute breakdown, baseline DMA, 16-way designs")
	tb := stats.NewTable("benchmark", "flush%", "dma%", "compute%", "total(us)")
	for _, name := range machsuite.Names() {
		cfg := soc.DefaultConfig()
		cfg.Lanes, cfg.Partitions = 16, 16
		cfg.PipelinedDMA, cfg.DMATriggered = false, false
		rs, err := evaluate(ev, name, cfg)
		if err != nil {
			return err
		}
		r := rs[0]
		b := r.Breakdown
		tb.Row(name, pctOf(b.FlushOnly, r.Runtime),
			pctOf(b.DMAFlush+b.Idle, r.Runtime),
			pctOf(b.ComputeOnly+b.ComputeDMA, r.Runtime),
			r.Seconds()*1e6)
	}
	tb.Render(w)
	return nil
}

// Fig3 prints the design-parameter table.
func Fig3(w io.Writer) error {
	fmt.Fprintln(w, "Figure 3 (table): design parameters")
	tb := stats.NewTable("parameter", "values")
	tb.Row("datapath lanes", "1, 2, 4, 8, 16")
	tb.Row("scratchpad partitioning", "1, 2, 4, 8, 16")
	tb.Row("data transfer mechanism", "DMA / cache")
	tb.Row("pipelined DMA", "enable/disable")
	tb.Row("DMA-triggered compute", "enable/disable")
	tb.Row("cache size", "2, 4, 8, 16, 32, 64 KB")
	tb.Row("cache line size", "16, 32, 64 B")
	tb.Row("cache ports", "1, 2, 4, 8")
	tb.Row("cache associativity", "4, 8")
	tb.Row("cache line flush", "84 ns/line")
	tb.Row("cache line invalidate", "71 ns/line")
	tb.Row("hardware prefetchers", "strided")
	tb.Row("MSHRs", "16")
	tb.Row("accelerator TLB size", "8")
	tb.Row("TLB miss latency", "200 ns")
	tb.Row("system bus width", "32, 64 b")
	tb.Render(w)
	return nil
}

// validation compares each benchmark of the validation suite, run on its
// default design under the baseline DMA flow, against the analytic golden
// model: the errors of Fig 4 and of Summary's first claim, in suite order.
func validation(ev *dse.Evaluator) ([]golden.Errors, error) {
	var errs []golden.Errors
	for _, name := range golden.ValidationSuite() {
		cfg := soc.DefaultConfig()
		cfg.PipelinedDMA, cfg.DMATriggered = false, false
		rs, err := evaluate(ev, name, cfg)
		if err != nil {
			return nil, err
		}
		g, _ := Graph(name)
		errs = append(errs, golden.Compare(rs[0], golden.Predict(g, cfg)))
	}
	return errs, nil
}

// Fig4 regenerates the validation table: simulator vs the analytic golden
// model (the hardware stand-in; see internal/golden).
func Fig4(w io.Writer, ev *dse.Evaluator) error {
	errs, err := validation(ev)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 4: validation error, simulator vs analytic golden model")
	tb := stats.NewTable("benchmark", "flush err%", "dma err%", "compute err%", "total err%")
	var totals []float64
	for i, name := range golden.ValidationSuite() {
		e := errs[i]
		tb.Row(name, e.FlushPct, e.DMAPct, e.ComputePct, e.TotalPct)
		totals = append(totals, e.TotalPct)
	}
	tb.Row("average", "", "", "", stats.Mean(totals))
	tb.Render(w)
	return nil
}

// Fig5 renders the paper's DMA latency-reduction illustration as measured
// timelines: a synthetic streaming kernel over a 16 KB array under the
// baseline flow, pipelined DMA, and DMA-triggered computation.
func Fig5(w io.Writer, ev *dse.Evaluator) error {
	// One pass over 2048 doubles: out[i] = 2*in[i].
	tr := traceBuilderForFig5()
	k := soc.Compile(ddg.Build(tr))
	fmt.Fprintln(w, "Figure 5: DMA latency reduction techniques (synthetic 16 KB stream)")
	fmt.Fprintln(w, "(F flush-only, D dma-without-compute, O compute/dma overlap, C compute-only)")
	type variant struct {
		name       string
		pipe, trig bool
	}
	variants := []variant{
		{"baseline", false, false},
		{"+pipelined dma", true, false},
		{"+dma-triggered", true, true},
	}
	cfgs := make([]soc.Config, len(variants))
	for i, v := range variants {
		cfgs[i] = soc.DefaultConfig()
		cfgs[i].PipelinedDMA, cfgs[i].DMATriggered = v.pipe, v.trig
	}
	outs, err := ev.Evaluate(context.Background(), tr.Name, k, cfgs, nil)
	if err != nil {
		return err
	}
	for i, v := range variants {
		r := outs[i].Res
		if r == nil {
			return outs[i].Err
		}
		fmt.Fprintf(w, "%-15s %s  %6.1f us\n", v.name,
			report.TimelineASCII(r, 64), r.Seconds()*1e6)
	}
	return nil
}

// traceBuilderForFig5 builds the synthetic single-array stream of Fig 5.
func traceBuilderForFig5() *trace.Trace {
	b := trace.NewBuilder("fig5-stream")
	in := b.Alloc("A", trace.F64, 2048, trace.In)
	out := b.Alloc("out", trace.F64, 2048, trace.Out)
	for i := 0; i < 2048; i++ {
		b.SetF64(in, i, float64(i))
	}
	two := b.ConstF(2)
	for i := 0; i < 2048; i++ {
		b.BeginIter()
		b.Store(out, i, b.FMul(two, b.Load(in, i)))
	}
	return b.Finish()
}

// Fig6a regenerates the cumulative DMA-optimization study at 4 lanes:
// baseline, +pipelined DMA, +DMA-triggered compute.
func Fig6a(w io.Writer, ev *dse.Evaluator) error {
	fmt.Fprintln(w, "Figure 6a: cumulative DMA optimizations, 4-lane designs")
	tb := stats.NewTable("benchmark", "config", "flush-only(us)", "dma/flush(us)",
		"compute/dma(us)", "compute-only(us)", "total(us)")
	type variant struct {
		name       string
		pipe, trig bool
	}
	variants := []variant{
		{"baseline", false, false},
		{"+pipelined", true, false},
		{"+triggered", true, true},
	}
	cfgs := make([]soc.Config, len(variants))
	for i, v := range variants {
		cfgs[i] = soc.DefaultConfig()
		cfgs[i].Lanes, cfgs[i].Partitions = 4, 4
		cfgs[i].PipelinedDMA, cfgs[i].DMATriggered = v.pipe, v.trig
	}
	for _, name := range Fig6Benchmarks() {
		rs, err := evaluate(ev, name, cfgs...)
		if err != nil {
			return err
		}
		for i, v := range variants {
			r := rs[i]
			b := r.Breakdown
			tb.Row(name, v.name, float64(b.FlushOnly)/1e6,
				float64(b.DMAFlush+b.Idle)/1e6, float64(b.ComputeDMA)/1e6,
				float64(b.ComputeOnly)/1e6, r.Seconds()*1e6)
		}
	}
	tb.Render(w)
	return nil
}

// Fig6b regenerates the parallelism sweep with all DMA optimizations on.
func Fig6b(w io.Writer, ev *dse.Evaluator, quick bool) error {
	fmt.Fprintln(w, "Figure 6b: parallelism sweep with all DMA optimizations")
	lanes := dse.DefaultLanes()
	if quick {
		lanes = []int{1, 4, 16}
	}
	tb := stats.NewTable("benchmark", "lanes", "movement-only(us)", "compute/dma(us)",
		"compute-only(us)", "total(us)", "speedup")
	cfgs := make([]soc.Config, len(lanes))
	for i, l := range lanes {
		cfgs[i] = soc.DefaultConfig()
		cfgs[i].Lanes, cfgs[i].Partitions = l, l
	}
	for _, name := range Fig6Benchmarks() {
		rs, err := evaluate(ev, name, cfgs...)
		if err != nil {
			return err
		}
		var base float64
		for i, l := range lanes {
			r := rs[i]
			if base == 0 {
				base = r.Seconds()
			}
			b := r.Breakdown
			tb.Row(name, l, float64(b.FlushOnly+b.DMAFlush+b.Idle)/1e6,
				float64(b.ComputeDMA)/1e6, float64(b.ComputeOnly)/1e6,
				r.Seconds()*1e6, base/r.Seconds())
		}
	}
	tb.Render(w)
	return nil
}

// fig7CacheSize finds the smallest cache size at which performance
// saturates for the benchmark (within 2% of the largest size), per the
// Fig 7 protocol.
func fig7CacheSize(ev *dse.Evaluator, name string, lanes int) (int, error) {
	sizes := dse.DefaultCacheKB()
	cfgs := make([]soc.Config, len(sizes))
	for i, kb := range sizes {
		cfgs[i] = soc.DefaultConfig()
		cfgs[i].Mem = soc.Cache
		cfgs[i].Lanes = lanes
		cfgs[i].CacheKB = kb
	}
	rs, err := evaluate(ev, name, cfgs...)
	if err != nil {
		return 0, err
	}
	limit := rs[len(rs)-1].Runtime
	for i, kb := range sizes {
		if float64(rs[i].Runtime) <= 1.02*float64(limit) {
			return kb, nil
		}
	}
	return sizes[len(sizes)-1], nil
}

// Fig7 regenerates the cache-based decomposition: processing, latency,
// and bandwidth time versus datapath parallelism (Burger-style: ideal
// memory; unconstrained-bandwidth cache; fully constrained cache).
func Fig7(w io.Writer, ev *dse.Evaluator, quick bool) error {
	fmt.Fprintln(w, "Figure 7: cache-based accelerators: processing/latency/bandwidth time")
	lanes := dse.DefaultLanes()
	benches := Fig8Benchmarks()
	if quick {
		lanes = []int{1, 4, 16}
		benches = []string{"gemm-ncubed", "md-knn", "spmv-crs"}
	}
	tb := stats.NewTable("benchmark", "cacheKB", "lanes", "processing(us)",
		"latency(us)", "bandwidth(us)", "total(us)")
	for _, name := range benches {
		kb, err := fig7CacheSize(ev, name, 4)
		if err != nil {
			return err
		}
		// Three designs per lane count: processing (ideal single-cycle
		// memory), latency (cache with effectively unlimited bus/DRAM
		// bandwidth) and bandwidth (the fully constrained system).
		var cfgs []soc.Config
		for _, l := range lanes {
			cfg := soc.DefaultConfig()
			cfg.Mem = soc.Cache
			cfg.Lanes = l
			cfg.CacheKB = kb
			// Local memory bandwidth scales with the datapath so the
			// decomposition isolates system-side latency/bandwidth
			// (ports are a separate Fig 8 axis).
			cfg.CachePorts = min(l, 8)
			ideal, unbw := cfg, cfg
			ideal.Mem = soc.Ideal
			unbw.BusWidthBits = 4096
			unbw.DRAM.BytesPerNs = 1e6
			cfgs = append(cfgs, ideal, unbw, cfg)
		}
		rs, err := evaluate(ev, name, cfgs...)
		if err != nil {
			return err
		}
		for i, l := range lanes {
			r1, r2, r3 := rs[3*i], rs[3*i+1], rs[3*i+2]
			proc := r1.Seconds() * 1e6
			lat := r2.Seconds()*1e6 - proc
			bwT := r3.Seconds()*1e6 - r2.Seconds()*1e6
			if lat < 0 {
				lat = 0
			}
			if bwT < 0 {
				bwT = 0
			}
			tb.Row(name, kb, l, proc, lat, bwT, r3.Seconds()*1e6)
		}
	}
	tb.Render(w)
	return nil
}

// Fig8 regenerates the power-performance Pareto frontiers for DMA- and
// cache-based designs with EDP optima marked.
func Fig8(w io.Writer, ev *dse.Evaluator, quick bool) error {
	fmt.Fprintln(w, "Figure 8: power-performance Pareto curves, DMA vs cache")
	tb := stats.NewTable("benchmark", "memsys", "lanes", "local", "time(us)",
		"power(mW)", "EDP(nJ*s)", "")
	for _, name := range Fig8Benchmarks() {
		k, err := Kernel(name)
		if err != nil {
			return err
		}
		for _, mem := range []soc.MemKind{soc.DMA, soc.Cache} {
			base := soc.DefaultConfig()
			base.Mem = mem
			cfgs := dse.GridSpace(base, !quick, nil).Grid()
			space, err := ev.Sweep(context.Background(), name, k, cfgs, nil)
			if err != nil {
				return err
			}
			best, ok := space.EDPOptimal()
			if !ok {
				return fmt.Errorf("figures: fig 8 %s/%s sweep: %w", name, mem, dse.ErrEmptySpace)
			}
			for _, p := range space.ParetoFront() {
				local := fmt.Sprintf("%db", p.Cfg.Partitions)
				if mem == soc.Cache {
					local = fmt.Sprintf("%dKB/%dp", p.Cfg.CacheKB, p.Cfg.CachePorts)
				}
				mark := ""
				if p.Cfg == best.Cfg {
					mark = "* EDP optimal"
				}
				tb.Row(name, mem.String(), p.Cfg.Lanes, local,
					p.Res.Seconds()*1e6, p.Res.AvgPowerW*1e3, p.Res.EDPJs*1e9, mark)
			}
		}
	}
	tb.Render(w)
	return nil
}

// scenarioOptima computes, per benchmark, the EDP-optimal point of each
// design scenario and the co-design improvement over the isolated optimum
// (shared by Figs 9, 10 and Summary). The sweeps run on ev, so after the
// first figure that asks, a benchmark's scenario grids are memory hits.
func scenarioOptima(ev *dse.Evaluator, name string, quick bool) (map[string]dse.Point, map[string]dse.Improvement, error) {
	k, err := Kernel(name)
	if err != nil {
		return nil, nil, err
	}
	scs := dse.Scenarios()
	isoSpace, err := ev.Sweep(context.Background(), name, k, scs[0].Space(!quick).Grid(), nil)
	if err != nil {
		return nil, nil, err
	}
	isoBest, ok := isoSpace.EDPOptimal()
	if !ok {
		return nil, nil, fmt.Errorf("figures: %s isolated sweep: %w", name, dse.ErrEmptySpace)
	}
	optima := map[string]dse.Point{scs[0].Name: isoBest}
	imps := map[string]dse.Improvement{}
	for _, sc := range scs[1:] {
		imp, err := ev.EDPImprovement(context.Background(), name, k, isoBest, sc, !quick)
		if err != nil {
			return nil, nil, err
		}
		optima[sc.Name] = imp.CoBest
		imps[sc.Name] = imp
	}
	return optima, imps, nil
}

// Fig9 regenerates the Kiviat comparison: lanes / SRAM / local bandwidth
// of each scenario's EDP optimum, normalized to the isolated design.
func Fig9(w io.Writer, ev *dse.Evaluator, quick bool) error {
	fmt.Fprintln(w, "Figure 9: EDP-optimal microarchitecture parameters by scenario")
	fmt.Fprintln(w, "(normalized to the isolated design)")
	tb := stats.NewTable("benchmark", "scenario", "lanes", "sramKB", "localBW(B/cyc)",
		"lanes/iso", "sram/iso", "bw/iso")
	for _, name := range Fig8Benchmarks() {
		optima, _, err := scenarioOptima(ev, name, quick)
		if err != nil {
			return err
		}
		g, _ := Graph(name)
		iso := dse.PointMetrics(optima["isolated"], g)
		for _, sc := range dse.Scenarios() {
			p := optima[sc.Name]
			m := dse.PointMetrics(p, g)
			tb.Row(name, sc.Name, m.Lanes, m.SRAMKB, m.LocalBW,
				float64(m.Lanes)/float64(iso.Lanes), m.SRAMKB/iso.SRAMKB,
				m.LocalBW/iso.LocalBW)
		}
	}
	tb.Render(w)
	return nil
}

// Summary prints the paper's headline numbers as this reproduction
// measures them: the validation error (Fig 4) and the geomean/max EDP
// improvements of co-design (Fig 10).
func Summary(w io.Writer, ev *dse.Evaluator, quick bool) error {
	valid, err := validation(ev)
	if err != nil {
		return err
	}
	var errs []float64
	for _, e := range valid {
		errs = append(errs, e.TotalPct)
	}

	ratios := map[string][]float64{}
	var maxRatio float64
	var maxAt string
	for _, name := range Fig8Benchmarks() {
		_, imps, err := scenarioOptima(ev, name, quick)
		if err != nil {
			return err
		}
		for sc, imp := range imps {
			ratios[sc] = append(ratios[sc], imp.EDPRatio)
			if imp.EDPRatio > maxRatio {
				maxRatio = imp.EDPRatio
				maxAt = name + "/" + sc
			}
		}
	}

	fmt.Fprintln(w, "Headline results (paper -> measured):")
	tb := stats.NewTable("claim", "paper", "measured")
	tb.Row("validation error vs hardware stand-in", "< 6% avg", fmt.Sprintf("%.1f%% avg", stats.Mean(errs)))
	tb.Row("EDP improvement, DMA/32b", "1.2x avg", fmt.Sprintf("%.2fx geomean", stats.Geomean(ratios["dma-32b"])))
	tb.Row("EDP improvement, cache/32b", "2.2x avg", fmt.Sprintf("%.2fx geomean", stats.Geomean(ratios["cache-32b"])))
	tb.Row("EDP improvement, cache/64b", "2.0x avg", fmt.Sprintf("%.2fx geomean", stats.Geomean(ratios["cache-64b"])))
	tb.Row("max EDP improvement", "7.4x", fmt.Sprintf("%.1fx (%s)", maxRatio, maxAt))
	tb.Render(w)
	return nil
}

// Fig10 regenerates the EDP-improvement study: isolated-optimal designs
// deployed naively in each system scenario vs co-designed optima.
func Fig10(w io.Writer, ev *dse.Evaluator, quick bool) error {
	fmt.Fprintln(w, "Figure 10: EDP improvement of co-designed over isolated designs")
	scs := dse.Scenarios()[1:]
	tb := stats.NewTable("benchmark", scs[0].Name, scs[1].Name, scs[2].Name)
	ratios := map[string][]float64{}
	for _, name := range Fig8Benchmarks() {
		_, imps, err := scenarioOptima(ev, name, quick)
		if err != nil {
			return err
		}
		row := []any{name}
		for _, sc := range scs {
			r := imps[sc.Name].EDPRatio
			ratios[sc.Name] = append(ratios[sc.Name], r)
			row = append(row, r)
		}
		tb.Row(row...)
	}
	avg := []any{"average"}
	for _, sc := range scs {
		avg = append(avg, stats.Geomean(ratios[sc.Name]))
	}
	tb.Row(avg...)
	tb.Render(w)
	return nil
}
