// Command dse sweeps an accelerator design space for one benchmark and
// prints every evaluated point, the Pareto frontier, and the EDP optimum.
//
// Example:
//
//	go run ./cmd/dse -bench stencil-stencil3d -mem dma
//	go run ./cmd/dse -bench spmv-crs -mem cache -bus-bits 64 -full
//	go run ./cmd/dse -bench spmv-crs -mem cache -search -budget 400 -seed 7
//
// -search replaces the exhaustive grid with the adaptive Pareto-guided
// search (dse.Search) over the default large axes for the chosen memory
// system (~10^5 points for caches — far beyond what a grid can touch):
// only the recovered front is printed. With -store, the search checkpoints
// its frontier after every round and a rerun of the same command resumes
// where the interrupted run stopped, replaying stored points instead of
// re-simulating them.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"time"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/stats"
	"gem5aladdin/internal/store"
)

func main() {
	var (
		bench   = flag.String("bench", "stencil-stencil3d", "benchmark name")
		mem     = flag.String("mem", "dma", "memory system: isolated, dma, cache")
		busBits = flag.Int("bus-bits", 32, "system bus width")
		full    = flag.Bool("full", false, "full Fig 3 sweep axes (slower)")
		front   = flag.Bool("pareto-only", false, "print only the Pareto frontier")
		format  = flag.String("format", "table", "output format: table, json, csv")
		jobs    = flag.Int("j", 0, "sweep worker count (0 = GOMAXPROCS)")
		every   = flag.Int("progress", 0, "print a round/front-size/simulated progress line every N points (grid) or every round (-search); 0 = off")
		adapt   = flag.Bool("search", false, "adaptive Pareto-guided search over the default large axes instead of an exhaustive grid")
		budget  = flag.Int("budget", 512, "max design points the search evaluates (-search)")
		seed    = flag.Uint64("seed", 1, "search RNG seed: same seed over the same space yields a bit-identical front (-search)")
		profile = flag.Bool("profile", false, "re-run the Pareto-front points with the cycle-attribution profiler and print a per-point breakdown")
		folded  = flag.String("profile-folded", "", "write the profiled points' folded stacks (flamegraph input) to this file (implies -profile work)")
		spanOut = flag.String("span-out", "", "write the sweep's wall-clock spans (one per design point) as JSON lines to this file")
		storeD  = flag.String("store", "", "durable result store directory: points already simulated (by any run or by cmd/serve) are replayed from disk")
		fabrics = flag.String("fabrics", "", "comma-separated fabric axis crossed into the sweep (bus,crossbar,mesh); empty sweeps the base -fabric only")
	)
	ob := report.AddObsFlags(flag.CommandLine, "re-run the EDP optimum and ")
	rb := report.AddRobustFlags(flag.CommandLine)
	fb := report.AddFabricFlags(flag.CommandLine)
	logf := report.AddLogFlags(flag.CommandLine)
	flag.Parse()

	lg, closeLog, err := logf.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer closeLog()

	k, err := machsuite.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tr, err := k.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	kern := soc.Compile(ddg.Build(tr))

	base := soc.DefaultConfig()
	base.BusWidthBits = *busBits
	if err := rb.Apply(&base); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := fb.Apply(&base); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fabricAxis, err := report.ParseFabricList(*fabrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := base.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	kind, err := soc.ParseMemKind(*mem)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// One space description either way: -search samples the default large
	// axes, the grid walks every point of the Fig 3 table.
	base.Mem = kind
	sspace := dse.GridSpace(base, *full, fabricAxis)
	var cfgs []soc.Config
	if *adapt {
		sspace.Axes = dse.WithFabricAxis(dse.DefaultSearchAxes(kind), fabricAxis)
		if err := sspace.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		cfgs = sspace.Grid()
	}

	// Ctrl-C abandons the sweep at the next design-point boundary instead of
	// leaving workers mid-grid.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// -span-out threads a root span through the sweep context: every design
	// point (and, under -search, every round) becomes one JSON line with its
	// worker track and wall-clock cost.
	var root *obs.Span
	if *spanOut != "" {
		sf, err := os.Create(*spanOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer sf.Close()
		root = obs.NewSpanTracer(sf, 0).StartTrace("dse-sweep")
		root.SetAttr("bench", *bench)
		root.SetAttr("mem", *mem)
		if *adapt {
			root.SetAttr("space", sspace.Size())
			root.SetAttr("budget", *budget)
		} else {
			root.SetAttr("points", len(cfgs))
		}
		ctx = obs.WithSpan(ctx, root)
	}

	// -store makes the sweep crash-safe and incremental: every simulated
	// point is written through to an append-only segment log keyed by its
	// content address, and points already on disk — from an earlier run, an
	// interrupted run, or a cmd/serve instance sharing the directory — are
	// replayed instead of re-simulated. Under -search it also holds the
	// per-round frontier checkpoint that lets a killed search resume.
	var st *store.Store
	if *storeD != "" {
		st, err = store.Open(*storeD, store.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "closing store:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "dse: result store %s: %d records on disk\n",
			*storeD, st.Len())
	}

	var space dse.Space
	if *adapt {
		space, err = runSearch(ctx, kern, sspace, st, lg,
			*bench, *mem, *seed, *budget, *jobs, *every)
	} else {
		space, err = runGrid(ctx, kern, cfgs, st, lg,
			*bench, *mem, *full, *jobs, *every)
	}
	root.EndSpan()
	if err != nil {
		if lg != nil {
			lg.Error("sweep failed", "err", err.Error())
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	best, ok := space.EDPOptimal()
	if !ok {
		fmt.Fprintln(os.Stderr, "dse: every design point aborted; nothing to rank")
		os.Exit(1)
	}
	pts := space
	if *front {
		pts = space.ParetoFront()
	}

	// The sweep itself runs unobserved (observability off keeps every probe
	// disabled); when dumps are requested, the winning point is re-simulated
	// with an observer attached.
	if o := ob.Observer(); o != nil {
		cfg := best.Cfg
		cfg.Obs = o
		if _, err := soc.Run(kern, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := ob.Write(o); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote observability dumps for the EDP-optimal point")
	}

	if *format != "table" {
		var recs []report.Record
		for _, p := range pts {
			recs = append(recs, report.FromResult(*bench, p.Res))
		}
		var werr error
		switch *format {
		case "json":
			werr = report.WriteJSON(os.Stdout, recs)
		case "csv":
			werr = report.WriteCSV(os.Stdout, recs)
		default:
			werr = fmt.Errorf("unknown -format %q", *format)
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
	} else {
		tb := stats.NewTable("lanes", "local memory", "time(us)", "power(mW)", "EDP(nJ*s)", "")
		for _, p := range pts {
			local := fmt.Sprintf("%d banks x %d ports", p.Cfg.Partitions, p.Cfg.SpadPorts)
			if p.Cfg.Mem == soc.Cache {
				local = fmt.Sprintf("%dKB %dB/line %dp %d-way",
					p.Cfg.CacheKB, p.Cfg.CacheLineBytes, p.Cfg.CachePorts, p.Cfg.CacheAssoc)
			}
			mark := ""
			if p.Cfg == best.Cfg {
				mark = "<-- EDP optimal"
			}
			tb.Row(p.Cfg.Lanes, local, p.Res.Seconds()*1e6, p.Res.AvgPowerW*1e3,
				p.Res.EDPJs*1e9, mark)
		}
		fmt.Printf("%s, %s, %d-bit bus: %d design points (%d on Pareto frontier)\n\n",
			*bench, *mem, *busBits, len(space), len(space.ParetoFront()))
		tb.Render(os.Stdout)
	}

	if *profile || *folded != "" {
		if err := profilePoints(kern, space.ParetoFront(), *bench, *folded, *profile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// progressLine is the shared -progress format for the grid and search
// paths: one line per round with the Pareto-front size so far and how many
// points were actually simulated (as opposed to replayed from -store).
func progressLine(round, evaluated, total, frontSize, simulated int, replayed bool) {
	suffix := ""
	if replayed {
		suffix = " (replayed)"
	}
	fmt.Fprintf(os.Stderr, "dse: round %d: %d/%d points evaluated, front size %d, %d simulated%s\n",
		round, evaluated, total, frontSize, simulated, suffix)
}

// runGrid runs the exhaustive sweep on one evaluator, with -j workers and
// the -store store. With -progress N the grid is swept in rounds of N
// points so the progress stream matches the search path's: front size is
// computed over everything evaluated so far, and simulated counts new store
// records (every point, when no store is attached). Without it the whole
// grid is one round.
func runGrid(ctx context.Context, kern *soc.Compiled, cfgs []soc.Config, st *store.Store, lg *slog.Logger, bench, mem string, full bool, jobs, every int) (dse.Space, error) {
	ev := dse.NewEvaluator(dse.EvaluatorOptions{Workers: jobs, Store: st})
	defer ev.Close(context.Background())
	if lg != nil {
		lg.Info("sweep starting", "bench", bench, "mem", mem,
			"points", len(cfgs), "workers", jobs, "full", full)
	}
	swept := time.Now()
	size := every
	if size <= 0 {
		size = len(cfgs)
	}
	stored := 0
	if st != nil {
		stored = st.Len()
	}
	var space dse.Space
	for off, round := 0, 0; off < len(cfgs); off, round = off+size, round+1 {
		end := min(off+size, len(cfgs))
		part, err := ev.Sweep(ctx, bench, kern, cfgs[off:end], nil)
		if err != nil {
			return nil, err
		}
		space = append(space, part...)
		if every > 0 {
			simulated := end
			if st != nil {
				simulated = st.Len() - stored
			}
			progressLine(round, end, len(cfgs), len(space.ParetoFront()), simulated, false)
		}
	}
	if skipped := len(cfgs) - len(space); skipped > 0 {
		fmt.Fprintf(os.Stderr, "dse: skipped %d of %d design points that aborted under fault injection\n",
			skipped, len(cfgs))
	}
	if lg != nil {
		lg.Info("sweep complete", "evaluated", len(space),
			"skipped", len(cfgs)-len(space),
			"elapsed_ms", time.Since(swept).Milliseconds())
	}
	return space, nil
}

// runSearch runs the adaptive Pareto-guided search and returns its
// recovered front. With -store, points replay from disk and the frontier
// checkpoints under a key derived from the bench and memory system, so
// rerunning the same command resumes an interrupted search (a changed seed
// or space fingerprints differently and starts fresh).
func runSearch(ctx context.Context, kern *soc.Compiled, sspace dse.SearchSpace, st *store.Store, lg *slog.Logger, bench, mem string, seed uint64, budget, jobs, every int) (dse.Space, error) {
	sopts := dse.SearchOptions{Seed: seed, Budget: budget, Workers: jobs}
	if st != nil {
		sopts.Cache = &dse.StoreCache{Kernel: bench, Store: st}
		sopts.CheckpointKey = "search/cli-" + bench + "-" + mem
	}
	if every > 0 {
		sopts.Progress = func(p dse.SearchProgress) {
			progressLine(p.Round, p.Evaluated, budget, p.FrontSize, p.Simulated, p.Replayed)
		}
	}
	if lg != nil {
		lg.Info("search starting", "bench", bench, "mem", mem,
			"space", sspace.Size(), "budget", budget, "seed", seed, "workers", jobs)
	}
	started := time.Now()
	res, err := dse.Search(ctx, kern, sspace, sopts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "dse: search over %d-point space: %d rounds, %d evaluated (budget %d), %d simulated, converged=%v\n",
		res.SpaceSize, res.Rounds, res.Evaluated, budget, res.Simulated, res.Converged)
	if lg != nil {
		lg.Info("search complete", "rounds", res.Rounds,
			"evaluated", res.Evaluated, "simulated", res.Simulated,
			"front", len(res.Front), "converged", res.Converged,
			"elapsed_ms", time.Since(started).Milliseconds())
	}
	return res.Front, nil
}

// pointLabel compactly names one design point for folded stacks (no spaces
// or semicolons — both are separators in the flamegraph format) and the
// attribution table.
func pointLabel(cfg soc.Config) string {
	if cfg.Mem == soc.Cache {
		return fmt.Sprintf("lanes%d-%dKB-%dway", cfg.Lanes, cfg.CacheKB, cfg.CacheAssoc)
	}
	return fmt.Sprintf("lanes%d-banks%dx%d", cfg.Lanes, cfg.Partitions, cfg.SpadPorts)
}

// profilePoints re-simulates the Pareto-front points under the
// cycle-attribution profiler, recycling one Runner across the points the
// way a sweep worker does. Every simulated cycle lands in exactly one
// bucket, so the percentage rows sum to 100; the folded output feeds
// flamegraph.pl (or speedscope) directly.
func profilePoints(k *soc.Compiled, pts dse.Space, bench, foldedPath string, table bool) error {
	var fw io.Writer
	if foldedPath != "" {
		f, err := os.Create(foldedPath)
		if err != nil {
			return err
		}
		defer f.Close()
		fw = f
	}
	cols := []string{"point", "cycles"}
	for b := 0; b < obs.NumBuckets; b++ {
		cols = append(cols, obs.Bucket(b).String())
	}
	tb := stats.NewTable(cols...)
	var r soc.Runner
	for _, p := range pts {
		res, att, err := r.ProfileRun(k, p.Cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dse: profiling %s: %v\n", pointLabel(p.Cfg), err)
			continue
		}
		if res.Runtime != p.Res.Runtime {
			return fmt.Errorf("dse: profiled run of %s diverged: %v != %v",
				pointLabel(p.Cfg), res.Runtime, p.Res.Runtime)
		}
		row := []any{pointLabel(p.Cfg), att.Total}
		for b := 0; b < obs.NumBuckets; b++ {
			row = append(row, fmt.Sprintf("%5.1f%%", 100*float64(att.Ticks[b])/float64(att.Total)))
		}
		tb.Row(row...)
		if fw != nil {
			if err := att.WriteFolded(fw, bench+";"+pointLabel(p.Cfg)); err != nil {
				return err
			}
		}
	}
	if table {
		fmt.Printf("\ncycle attribution, Pareto-front points (each row sums to 100%%):\n\n")
		tb.Render(os.Stdout)
	}
	return nil
}
