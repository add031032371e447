// Command aladdin runs one accelerator design point end to end and prints
// the runtime breakdown, energy, and statistics — the single-simulation
// entry point of the gem5-Aladdin reproduction.
//
// Example:
//
//	go run ./cmd/aladdin -bench md-knn -mem dma -lanes 8 -partitions 8
//	go run ./cmd/aladdin -bench spmv-crs -mem cache -cache-kb 8 -cache-ports 2
package main

import (
	"flag"
	"fmt"
	"os"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/stats"
	"gem5aladdin/internal/trace"
)

func main() {
	var (
		bench      = flag.String("bench", "gemm-ncubed", "MachSuite benchmark name (see cmd/machsuite)")
		traceFile  = flag.String("trace", "", "load a serialized .trace file instead of building a benchmark")
		mem        = flag.String("mem", "dma", "memory system: isolated, dma, cache")
		lanes      = flag.Int("lanes", 4, "datapath lanes")
		partitions = flag.Int("partitions", 4, "scratchpad partitions")
		pipelined  = flag.Bool("pipelined-dma", true, "pipeline flush with DMA")
		triggered  = flag.Bool("dma-triggered", true, "DMA-triggered compute (full/empty bits)")
		cacheKB    = flag.Int("cache-kb", 16, "cache size in KB")
		cacheLine  = flag.Int("cache-line", 32, "cache line bytes")
		cachePorts = flag.Int("cache-ports", 1, "cache ports")
		cacheAssoc = flag.Int("cache-assoc", 4, "cache associativity")
		busBits    = flag.Int("bus-bits", 32, "system bus width in bits")
		timeline   = flag.Bool("timeline", false, "render the per-lane execution timeline")
		profile    = flag.Bool("profile", false, "attribute every simulated cycle to one component bucket and print the breakdown")
	)
	ob := report.AddObsFlags(flag.CommandLine, "")
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

	var tr *trace.Trace
	name := *bench
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr, err = trace.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		name = tr.Name
	} else {
		k, err := machsuite.ByName(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		tr, err = k.Build()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	kern := soc.Compile(ddg.Build(tr))

	cfg := soc.DefaultConfig()
	if cfg.Mem, err = soc.ParseMemKind(*mem); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Lanes = *lanes
	cfg.Partitions = *partitions
	cfg.PipelinedDMA = *pipelined
	cfg.DMATriggered = *triggered
	cfg.CacheKB = *cacheKB
	cfg.CacheLineBytes = *cacheLine
	cfg.CachePorts = *cachePorts
	cfg.CacheAssoc = *cacheAssoc
	cfg.BusWidthBits = *busBits
	cfg.RecordSchedule = *timeline

	if err := rb.Apply(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := fb.Apply(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	o := ob.Observer()
	if o != nil {
		cfg.Obs = o
	}

	if lg != nil {
		lg.Info("run starting", "bench", name, "mem", cfg.Mem.String(),
			"lanes", cfg.Lanes, "ops", kern.NumNodes())
	}
	var runner soc.Runner
	res, err := runner.Run(kern, cfg)
	if err != nil {
		if lg != nil {
			lg.Error("run failed", "bench", name, "err", err)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if lg != nil {
		lg.Info("run complete", "bench", name, "cycles", res.Cycles,
			"runtime_us", res.Seconds()*1e6, "edp_njs", res.EDPJs*1e9)
	}
	if o != nil {
		if err := ob.Write(o); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	rb.Report(res)
	fmt.Printf("%s (%d dynamic ops, %d iterations) on %s, %d lanes\n\n",
		name, kern.NumNodes(), len(kern.Graph().IterRange), cfg.Mem, cfg.Lanes)

	tb := stats.NewTable("metric", "value")
	tb.Row("runtime", fmt.Sprintf("%.2f us (%d cycles)", res.Seconds()*1e6, res.Cycles))
	b := res.Breakdown
	tb.Row("  flush-only", fmt.Sprintf("%.2f us", float64(b.FlushOnly)/1e6))
	tb.Row("  dma (no compute)", fmt.Sprintf("%.2f us", float64(b.DMAFlush+b.Idle)/1e6))
	tb.Row("  compute+dma overlap", fmt.Sprintf("%.2f us", float64(b.ComputeDMA)/1e6))
	tb.Row("  compute-only", fmt.Sprintf("%.2f us", float64(b.ComputeOnly)/1e6))
	tb.Row("accelerator power", fmt.Sprintf("%.3f mW", res.AvgPowerW*1e3))
	tb.Row("accelerator energy", fmt.Sprintf("%.3f uJ", res.Energy.Total()*1e6))
	tb.Row("  FU dynamic", fmt.Sprintf("%.3f uJ", res.Energy.FUDynamic*1e6))
	tb.Row("  FU leakage", fmt.Sprintf("%.3f uJ", res.Energy.FULeak*1e6))
	tb.Row("  mem dynamic", fmt.Sprintf("%.3f uJ", res.Energy.MemDynamic*1e6))
	tb.Row("  mem leakage", fmt.Sprintf("%.3f uJ", res.Energy.MemLeak*1e6))
	tb.Row("EDP", fmt.Sprintf("%.4g nJ*s", res.EDPJs*1e9))
	tb.Row("area", fmt.Sprintf("%.3f mm^2", res.AreaMM2))
	util := res.Datapath.LaneUtilization()
	if len(util) > 0 {
		mn, mx := util[0], util[0]
		for _, u := range util {
			if u < mn {
				mn = u
			}
			if u > mx {
				mx = u
			}
		}
		tb.Row("lane utilization", fmt.Sprintf("%.0f%% - %.0f%%", mn*100, mx*100))
	}
	tb.Row("transfer energy (system)", fmt.Sprintf("%.3f uJ", res.TransferJ*1e6))
	tb.Row("bus utilization", fmt.Sprintf("%.1f%%", 100*float64(res.Bus.BusyTicks)/float64(res.Runtime)))
	if cfg.Mem == soc.Cache {
		tb.Row("cache accesses", res.Cache.Accesses)
		tb.Row("  hits", res.Cache.Hits)
		tb.Row("  misses", res.Cache.Misses)
		tb.Row("  prefetches", res.Cache.Prefetches)
		tb.Row("  c2c fills", res.Cache.C2CFills)
		tb.Row("TLB misses", res.TLB.Misses)
	} else {
		tb.Row("spad reads", res.Spad.Reads)
		tb.Row("spad writes", res.Spad.Writes)
		tb.Row("bank conflicts", res.Spad.BankConflicts)
	}
	tb.Render(os.Stdout)

	if *profile {
		// Re-run under the cycle-attribution profiler: the run is
		// deterministic, so the re-simulation reproduces res exactly and
		// the buckets sum to its cycle count.
		pres, att, err := runner.ProfileRun(kern, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if pres.Runtime != res.Runtime {
			fmt.Fprintf(os.Stderr, "aladdin: profiled run diverged: %v != %v\n",
				pres.Runtime, res.Runtime)
			os.Exit(1)
		}
		fmt.Println("\ncycle attribution (every tick in exactly one bucket):")
		pt := stats.NewTable("bucket", "ticks", "share")
		for b := 0; b < obs.NumBuckets; b++ {
			pt.Row(obs.Bucket(b).String(), att.Ticks[b],
				fmt.Sprintf("%5.1f%%", 100*float64(att.Ticks[b])/float64(att.Total)))
		}
		pt.Render(os.Stdout)
	}

	if *timeline {
		fmt.Println("\nexecution timeline (F flush, D dma, O overlap, C compute, . idle):")
		fmt.Print(report.GanttASCII(res, res.Schedule, cfg.Lanes, 100))
	}
}
