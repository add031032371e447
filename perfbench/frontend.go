package main

import (
	"fmt"
	"runtime"
	"time"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/soc"
)

// frontEnd is one front-end pass over a kernel set: per-stage host time,
// the traced node count and, when counted, per-stage heap allocations.
type frontEnd struct {
	traceNS, ddgNS, compileNS             int64
	nodes                                 int
	traceAllocs, ddgAllocs, compileAllocs uint64
}

// compileKernels runs machsuite → ddg.Build → soc.Compile for every named
// kernel. With countAllocs it brackets every stage with a heap-statistics
// read; the stages run on this goroutine alone, so the counts repeat
// exactly, but the reads stop the world and are kept out of timed set-ups.
func compileKernels(names []string, countAllocs bool) (map[string]*soc.Compiled, frontEnd, error) {
	var fe frontEnd
	ks := make(map[string]*soc.Compiled, len(names))
	var ms runtime.MemStats
	mallocs := func() uint64 {
		if !countAllocs {
			return 0
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	for _, name := range names {
		k, err := machsuite.ByName(name)
		if err != nil {
			return nil, fe, err
		}
		a0, t0 := mallocs(), time.Now()
		tr, err := k.Build()
		if err != nil {
			return nil, fe, fmt.Errorf("building %s: %w", name, err)
		}
		a1, t1 := mallocs(), time.Now()
		g := ddg.Build(tr)
		a2, t2 := mallocs(), time.Now()
		ks[name] = soc.Compile(g)
		a3, t3 := mallocs(), time.Now()
		fe.traceNS += t1.Sub(t0).Nanoseconds()
		fe.ddgNS += t2.Sub(t1).Nanoseconds()
		fe.compileNS += t3.Sub(t2).Nanoseconds()
		fe.traceAllocs += a1 - a0
		fe.ddgAllocs += a2 - a1
		fe.compileAllocs += a3 - a2
		fe.nodes += tr.NumNodes()
	}
	return ks, fe, nil
}

// frontEndLayers reports the median stage times of the timed set-ups and
// the allocation counts of one counted pass.
func frontEndLayers(o *outcome, timed []frontEnd, counted frontEnd) {
	var tr, dg, cp []float64
	for _, fe := range timed {
		tr = append(tr, float64(fe.traceNS)/1e6)
		dg = append(dg, float64(fe.ddgNS)/1e6)
		cp = append(cp, float64(fe.compileNS)/1e6)
	}
	o.layers["trace.build_ms"] = median(tr)
	o.layers["ddg.build_ms"] = median(dg)
	o.layers["soc.compile_ms"] = median(cp)
	o.layers["trace.nodes"] = float64(counted.nodes)
	o.layers["trace.build_allocs"] = float64(counted.traceAllocs)
	o.layers["ddg.build_allocs"] = float64(counted.ddgAllocs)
	o.layers["soc.compile_allocs"] = float64(counted.compileAllocs)
}
