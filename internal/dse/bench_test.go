package dse_test

// Sweep-level benchmarks: design-space-exploration throughput is the
// headline metric of this simulator (the paper's co-design figures each
// sweep hundreds of design points per kernel), so the benchmarks here
// measure whole sweeps — fabric construction, run, and result collection
// per design point — rather than single runs. The numbers recorded in
// BENCH_sim.json come from:
//
//	go test ./internal/dse/ -bench . -benchmem
import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
)

// sweepConfigs builds the quick-mode DMA + cache design points for one
// kernel: the mixed workload a scenario study (Fig 9/10) runs per kernel.
func sweepConfigs() []soc.Config {
	var cfgs []soc.Config
	for _, mem := range []soc.MemKind{soc.DMA, soc.Cache} {
		base := soc.DefaultConfig()
		base.Mem = mem
		cfgs = append(cfgs, dse.GridSpace(base, false, nil).Grid()...)
	}
	return cfgs
}

// BenchmarkSweepQuick is the headline sweep-throughput benchmark: a
// quick-mode DMA + cache sweep (27 design points) over fft-transpose,
// parallel across CPUs. design-points/s is the metric that gates every
// co-design study.
func BenchmarkSweepQuick(b *testing.B) {
	k := soc.Compile(ddg.Build(machsuite.MustBuild("fft-transpose")))
	cfgs := sweepConfigs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space, err := dse.Sweep(context.Background(), k, cfgs, dse.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(space) != len(cfgs) {
			b.Fatalf("sweep dropped points: %d of %d", len(space), len(cfgs))
		}
	}
	b.ReportMetric(float64(len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepQuickSerial is the single-worker variant: per-design-point
// cost without parallel speedup, which isolates the effect of state reuse
// from scheduling.
func BenchmarkSweepQuickSerial(b *testing.B) {
	k := soc.Compile(ddg.Build(machsuite.MustBuild("fft-transpose")))
	cfgs := sweepConfigs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweepSerial(k, cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// sweepSerial evaluates every config on one pooled worker.
func sweepSerial(k *soc.Compiled, cfgs []soc.Config) (dse.Space, error) {
	return dse.Sweep(context.Background(), k, cfgs, dse.SweepOptions{Workers: 1})
}

// BenchmarkSweepQuickPersist is BenchmarkSweepQuick with the durable result
// store writing through: the persistence-overhead gate (target <= 5% vs the
// in-memory baseline). Each iteration sweeps under a distinct kernel label so
// every point is a store miss — the benchmark measures encode+append cost,
// not warm replay.
func BenchmarkSweepQuickPersist(b *testing.B) {
	k := soc.Compile(ddg.Build(machsuite.MustBuild("fft-transpose")))
	cfgs := sweepConfigs()
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := &dse.StoreCache{Kernel: fmt.Sprintf("fft-transpose/%d", i), Store: st}
		space, err := dse.Sweep(context.Background(), k, cfgs, dse.SweepOptions{Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		if len(space) != len(cfgs) {
			b.Fatalf("sweep dropped points: %d of %d", len(space), len(cfgs))
		}
	}
	b.ReportMetric(float64(len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepQuickPersistWarm replays the whole sweep from disk: the
// restart path. Every point is a store hit, so this bounds how fast a
// crashed or restarted sweep catches back up to where it died.
func BenchmarkSweepQuickPersistWarm(b *testing.B) {
	k := soc.Compile(ddg.Build(machsuite.MustBuild("fft-transpose")))
	cfgs := sweepConfigs()
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	cache := &dse.StoreCache{Kernel: "fft-transpose", Store: st}
	if _, err := dse.Sweep(context.Background(), k, cfgs, dse.SweepOptions{Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space, err := dse.Sweep(context.Background(), k, cfgs, dse.SweepOptions{Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		if len(space) != len(cfgs) {
			b.Fatalf("sweep dropped points: %d of %d", len(space), len(cfgs))
		}
	}
	b.ReportMetric(float64(len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// searchBenchSpace is the fully-enumerable 900-point DMA space the
// search-vs-grid comparison runs over (mirrors the search test space).
func searchBenchSpace() dse.SearchSpace {
	base := soc.DefaultConfig()
	base.Mem = soc.DMA
	return dse.SearchSpace{
		Base: base,
		Axes: []dse.SearchAxis{
			{Name: "lanes", Values: []int{1, 2, 4, 8, 16}},
			{Name: "partitions", Values: []int{1, 2, 4, 8, 16}},
			{Name: "spad_ports", Values: []int{1, 2, 4}},
			{Name: "pipelined_dma", Values: []int{0, 1}},
			{Name: "dma_triggered", Values: []int{0, 1}},
			{Name: "dma_chunk", Values: []int{1024, 4096, 16384}},
		},
	}
}

// BenchmarkSearchVsGrid is the time-to-front comparison behind the
// search_time_to_front entry in BENCH_sim.json: "grid" simulates the whole
// enumerable space exhaustively and extracts the Pareto front; "search" runs
// the adaptive engine with a 10x-smaller budget that the hypervolume-epsilon
// regression test pins to within 2% of the exhaustive front quality. Both
// report points-simulated/op so the 10x shows up next to the wall-clock.
func BenchmarkSearchVsGrid(b *testing.B) {
	k := soc.Compile(ddg.Build(machsuite.MustBuild("spmv-crs")))
	sp := searchBenchSpace()
	cfgs := sp.Grid()
	b.Run("grid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			space, err := dse.Sweep(context.Background(), k, cfgs, dse.SweepOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(space.ParetoFront()) == 0 {
				b.Fatal("empty frontier")
			}
		}
		b.ReportMetric(float64(len(cfgs)), "points/op")
	})
	b.Run("search", func(b *testing.B) {
		b.ReportAllocs()
		simulated := 0
		for i := 0; i < b.N; i++ {
			res, err := dse.Search(context.Background(), k, sp, dse.SearchOptions{
				Seed: 1, Budget: 90, InitSamples: 24, RoundSize: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Front) == 0 {
				b.Fatal("empty frontier")
			}
			simulated = res.Simulated
		}
		b.ReportMetric(float64(simulated), "points/op")
	})
}

// BenchmarkParetoFront measures frontier extraction at Fig 3 scale
// (thousands of evaluated points).
func BenchmarkParetoFront(b *testing.B) {
	space := syntheticSpace(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(space.ParetoFront()) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// syntheticSpace builds a deterministic pseudo-random space with realistic
// runtime/power spreads.
func syntheticSpace(n int) dse.Space {
	rng := rand.New(rand.NewSource(42))
	space := make(dse.Space, n)
	for i := range space {
		space[i] = dse.Point{Res: &soc.RunResult{
			Runtime:   sim.Tick(1e6 + rng.Intn(1e9)),
			AvgPowerW: 0.001 + rng.Float64()*0.1,
		}}
	}
	return space
}
