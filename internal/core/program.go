package core

import (
	"sync"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/trace"
)

// Program is the compiled, config-independent scheduling form of one
// kernel's DDDG: everything the datapath scheduler needs per node, hoisted
// out of the trace's Node structs into flat arrays (one byte per op kind,
// four bytes per iteration label) so the per-cycle hot loop touches dense
// memory instead of 24-byte Node records, plus the per-lane-count iteration
// layouts that Scratch.Build used to rebuild on every design point.
//
// A Program is immutable after Compile and safe to share read-only across
// concurrent schedulers; the lazily-built lane layouts are the only interior
// mutation and are guarded by a lock. One Program serves every design point
// of a sweep — the scheduler's per-point setup reduces to copying dependence
// counters and a wave-counter template.
type Program struct {
	g *ddg.Graph

	// kinds[i] and iter[i] mirror g.Trace.Nodes[i].Kind / .Iter.
	kinds []trace.OpKind
	iter  []int32

	// layouts caches the iteration-to-lane assignment per lane count. A
	// sweep revisits the same handful of lane counts across hundreds of
	// points, so each layout is computed once and then shared read-only.
	mu      sync.RWMutex
	layouts map[int]*laneLayout
}

// laneAssign is one lane's share of the kernel: its iteration node ranges in
// execution order and the wave index of each. Shared read-only between every
// scheduler run at the same lane count.
type laneAssign struct {
	iters []ddg.Range
	waves []int32
}

// laneLayout is the full iteration-to-lane assignment for one lane count:
// the prelude on lane 0 as wave 0, iteration k on lane k%L as wave k/L+1,
// plus the per-wave node-count template the barrier accounting starts from.
type laneLayout struct {
	lanes         []laneAssign
	waveRemaining []int
}

// CompileProgram flattens g into its scheduling form. The result shares g
// (read-only) and owns its flat arrays.
func CompileProgram(g *ddg.Graph) *Program {
	n := g.NumNodes()
	p := &Program{
		g:       g,
		kinds:   make([]trace.OpKind, n),
		iter:    make([]int32, n),
		layouts: make(map[int]*laneLayout),
	}
	for i := range g.Trace.Nodes {
		nd := &g.Trace.Nodes[i]
		p.kinds[i] = nd.Kind
		p.iter[i] = nd.Iter
	}
	return p
}

// Graph returns the dependence graph the program was compiled from.
func (p *Program) Graph() *ddg.Graph { return p.g }

// layout returns the iteration-to-lane assignment for the given lane count,
// building and caching it on first use.
func (p *Program) layout(lanes int) *laneLayout {
	p.mu.RLock()
	lay, ok := p.layouts[lanes]
	p.mu.RUnlock()
	if ok {
		return lay
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if lay, ok := p.layouts[lanes]; ok {
		return lay
	}
	g := p.g
	lay = &laneLayout{lanes: make([]laneAssign, lanes)}
	nWaves := 1 + (len(g.IterRange)+lanes-1)/lanes
	lay.waveRemaining = make([]int, nWaves+1)
	if g.Prelude.Len() > 0 {
		lay.lanes[0].iters = append(lay.lanes[0].iters, g.Prelude)
		lay.lanes[0].waves = append(lay.lanes[0].waves, 0)
		lay.waveRemaining[0] += g.Prelude.Len()
	}
	for k, r := range g.IterRange {
		lane := k % lanes
		wave := int32(k/lanes + 1)
		lay.lanes[lane].iters = append(lay.lanes[lane].iters, r)
		lay.lanes[lane].waves = append(lay.lanes[lane].waves, wave)
		lay.waveRemaining[wave] += r.Len()
	}
	p.layouts[lanes] = lay
	return lay
}
