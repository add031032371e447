// Command advisor answers the designer-facing question of Sec V: for a
// given workload, which memory system and which microarchitecture should
// the accelerator use? It sweeps both DMA- and cache-based design spaces,
// applies optional power/latency constraints, and prints a recommendation
// with the evidence.
//
// Example:
//
//	go run ./cmd/advisor -bench spmv-crs
//	go run ./cmd/advisor -bench gemm-ncubed -max-power-mw 3 -full
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/stats"
)

func main() {
	var (
		bench    = flag.String("bench", "spmv-crs", "benchmark name")
		busBits  = flag.Int("bus-bits", 32, "system bus width")
		maxPower = flag.Float64("max-power-mw", 0, "optional power budget in mW (0 = unconstrained)")
		slowdown = flag.Float64("within", 0, "optional latency target: lowest power within this factor of the fastest design (0 = off)")
		full     = flag.Bool("full", false, "full Fig 3 sweep axes")
	)
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
	if err := base.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	sweep := func(mem soc.MemKind) dse.Space {
		b := base
		b.Mem = mem
		space, err := dse.Sweep(context.Background(), kern, dse.GridSpace(b, *full, nil).Grid(), dse.SweepOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return space
	}
	if lg != nil {
		lg.Info("advisor sweeping", "bench", *bench, "full", *full)
	}
	dmaSpace := sweep(soc.DMA)
	cacheSpace := sweep(soc.Cache)
	if lg != nil {
		lg.Info("advisor swept", "dma_points", len(dmaSpace),
			"cache_points", len(cacheSpace))
	}
	all := append(append(dse.Space{}, dmaSpace...), cacheSpace...)
	if len(dmaSpace) == 0 || len(cacheSpace) == 0 {
		fmt.Fprintln(os.Stderr, "advisor: every design point in a sweep aborted (fault injection too aggressive?)")
		os.Exit(1)
	}

	pick := func(space dse.Space) (dse.Point, string, bool) {
		switch {
		case *maxPower > 0:
			p, ok := space.FastestUnderPower(*maxPower / 1e3)
			return p, fmt.Sprintf("fastest under %.1f mW", *maxPower), ok
		case *slowdown > 0:
			p, ok := space.LowestPowerWithin(*slowdown)
			return p, fmt.Sprintf("lowest power within %.2fx of fastest", *slowdown), ok
		default:
			p, ok := space.EDPOptimal()
			return p, "EDP optimal", ok
		}
	}
	best, criterion, ok := pick(all)
	if !ok {
		fmt.Printf("no design in the swept space satisfies the constraint\n")
		os.Exit(1)
	}

	describe := func(p dse.Point) string {
		if p.Cfg.Mem == soc.Cache {
			return fmt.Sprintf("cache: %d lanes, %d KB %dB/line %d ports %d-way",
				p.Cfg.Lanes, p.Cfg.CacheKB, p.Cfg.CacheLineBytes, p.Cfg.CachePorts, p.Cfg.CacheAssoc)
		}
		return fmt.Sprintf("scratchpad+DMA: %d lanes, %d banks", p.Cfg.Lanes, p.Cfg.Partitions)
	}

	fmt.Printf("%s on a %d-bit bus (%d designs evaluated, criterion: %s)\n\n",
		*bench, *busBits, len(all), criterion)
	fmt.Printf("recommended design: %s\n\n", describe(best))
	tb := stats.NewTable("metric", "recommended", "best DMA", "best cache")
	// Both spaces are non-empty (checked after the sweeps), so the optima exist.
	bd, _ := dmaSpace.EDPOptimal()
	bc, _ := cacheSpace.EDPOptimal()
	tb.Row("memory system", best.Cfg.Mem.String(), "dma", "cache")
	tb.Row("runtime (us)", best.Res.Seconds()*1e6, bd.Res.Seconds()*1e6, bc.Res.Seconds()*1e6)
	tb.Row("power (mW)", best.Res.AvgPowerW*1e3, bd.Res.AvgPowerW*1e3, bc.Res.AvgPowerW*1e3)
	tb.Row("area (mm^2)", best.Res.AreaMM2, bd.Res.AreaMM2, bc.Res.AreaMM2)
	tb.Row("EDP (nJ*s)", best.Res.EDPJs*1e9, bd.Res.EDPJs*1e9, bc.Res.EDPJs*1e9)
	tb.Render(os.Stdout)
}
