// Multi-accel places N accelerators on one shared interconnect and memory
// (the ACCEL0/ACCEL1 arrangement in the paper's Fig 3 SoC diagram) and
// quantifies what shared-resource contention does to each — across all
// three fabric backends (round-robin bus, AXI-like burst crossbar, 2D mesh
// NoC), optionally with a background CPU traffic generator stealing fabric
// cycles. A closing per-fabric lanes sweep shows the co-design point: the
// EDP-optimal datapath chosen in isolation is not the one that wins once
// the accelerators contend.
//
//	go run ./examples/multi-accel [-n 3] [-fabric-list bus,crossbar,mesh] \
//	    [-traffic-period 200] [-traffic-bytes 64]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	gem5aladdin "gem5aladdin"
)

func main() {
	n := flag.Int("n", 3, "number of accelerators sharing the fabric")
	fabrics := flag.String("fabric-list", "bus,crossbar,mesh",
		"comma-separated fabric backends to compare")
	trafficPeriod := flag.Int("traffic-period", 0,
		"CPU traffic generator period in ns (0 disables the generator)")
	trafficBytes := flag.Int("traffic-bytes", 64,
		"bytes per CPU traffic generator access")
	flag.Parse()

	// N accelerators, cycling through three MachSuite kernels with
	// different memory behavior: bandwidth-hungry streaming (fft),
	// latency-bound gather (md), and a mixed stencil.
	names := []string{"fft-transpose", "md-knn", "stencil-stencil2d"}
	kernels := make([]*gem5aladdin.Kernel, *n)
	labels := make([]string, *n)
	for i := range kernels {
		name := names[i%len(names)]
		tr, err := gem5aladdin.BuildBenchmark(name)
		if err != nil {
			log.Fatal(err)
		}
		kernels[i] = gem5aladdin.Compile(gem5aladdin.BuildGraph(tr))
		labels[i] = name
	}

	base := gem5aladdin.DefaultConfig()
	base.Lanes, base.Partitions = 8, 8
	if *trafficPeriod > 0 {
		base.Traffic = &gem5aladdin.TrafficConfig{
			Period: gem5aladdin.Tick(*trafficPeriod) * gem5aladdin.Nanosecond,
			Bytes:  uint32(*trafficBytes),
		}
		fmt.Printf("CPU traffic generator: %d B every %d ns on the shared fabric\n\n",
			*trafficBytes, *trafficPeriod)
	}

	var kinds []gem5aladdin.FabricKind
	for _, s := range strings.Split(*fabrics, ",") {
		k, err := gem5aladdin.ParseFabricKind(strings.TrimSpace(s))
		if err != nil {
			log.Fatal(err)
		}
		kinds = append(kinds, k)
	}

	// Solo baselines (on the default bus, no contention).
	solo := make([]*gem5aladdin.RunResult, *n)
	for i, k := range kernels {
		r, err := gem5aladdin.Run(k, base)
		if err != nil {
			log.Fatal(err)
		}
		solo[i] = r
	}

	fmt.Printf("%d accelerators sharing one fabric (slowdown vs solo on the bus):\n", *n)
	for _, kind := range kinds {
		cfg := base
		cfg.Fabric.Kind = kind
		cfgs := make([]gem5aladdin.Config, *n)
		for i := range cfgs {
			cfgs[i] = cfg
		}
		multi, err := gem5aladdin.Invoke(gem5aladdin.Invocation{Kernels: kernels, Configs: cfgs, Rounds: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s makespan %8.1f us  ", kind, float64(multi.Makespan)/1e6)
		for i, r := range multi.Results {
			fmt.Printf(" %s %.2fx", labels[i][:strings.IndexByte(labels[i], '-')],
				r.Seconds()/solo[i].Seconds())
		}
		fmt.Println()
	}

	// The co-design argument: sweep the datapath width of accelerator 0 in
	// isolation and under contention, per fabric. The EDP-optimal lane
	// count can shift once the fabric is shared — an isolated sweep
	// over-provisions a datapath the contended interconnect cannot feed.
	fmt.Println("\nEDP-optimal lanes for", labels[0], "(isolated vs sharing the fabric):")
	lanes := []int{1, 2, 4, 8, 16}
	for _, kind := range kinds {
		isoBest, isoEDP := 0, 0.0
		shBest, shEDP := 0, 0.0
		for _, l := range lanes {
			cfg := base
			cfg.Fabric.Kind = kind
			cfg.Lanes = l
			r, err := gem5aladdin.Run(kernels[0], cfg)
			if err != nil {
				log.Fatal(err)
			}
			if isoBest == 0 || r.EDPJs < isoEDP {
				isoBest, isoEDP = l, r.EDPJs
			}
			cfgs := make([]gem5aladdin.Config, *n)
			for i := range cfgs {
				cfgs[i] = cfg
				cfgs[i].Lanes = base.Lanes
			}
			cfgs[0].Lanes = l
			multi, err := gem5aladdin.Invoke(gem5aladdin.Invocation{Kernels: kernels, Configs: cfgs, Rounds: 1})
			if err != nil {
				log.Fatal(err)
			}
			if shBest == 0 || multi.Results[0].EDPJs < shEDP {
				shBest, shEDP = l, multi.Results[0].EDPJs
			}
		}
		marker := ""
		if isoBest != shBest {
			marker = "  <- contention shifts the optimum"
		}
		fmt.Printf("  %-8s isolated %2d lanes, contended %2d lanes%s\n",
			kind, isoBest, shBest, marker)
	}
}
