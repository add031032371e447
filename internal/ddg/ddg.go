// Package ddg builds the Dynamic Data Dependence Graph (DDDG) that Aladdin
// schedules. Vertices are dynamic trace operations; edges are true register
// dependences (captured by the trace builder) plus memory dependences
// recovered from concrete addresses: read-after-write, write-after-write,
// and write-after-read on the same location.
//
// The graph is built once per kernel trace and then shared read-only across
// every design point the scheduler evaluates, which is what makes large
// design-space sweeps cheap.
package ddg

import (
	"fmt"
	"math/bits"

	"gem5aladdin/internal/trace"
)

// PageSize is the virtual memory page size used throughout the SoC model.
const PageSize = 4096

// Range is a half-open interval of node indices [Start, End).
type Range struct{ Start, End int32 }

// Len returns the number of nodes in the range.
func (r Range) Len() int { return int(r.End - r.Start) }

// Graph is an immutable scheduled form of a kernel trace.
type Graph struct {
	Trace *trace.Trace

	// InDeg[i] is the total number of dependences (register + memory) of
	// node i.
	InDeg []int32

	// Successor adjacency in CSR form: successors of node i are
	// Succ[SuccIdx[i]:SuccIdx[i+1]].
	SuccIdx []int32
	Succ    []int32

	// Bases[a] is the page-aligned base address of array a in the
	// accelerator's virtual address space.
	Bases []uint64

	// Prelude covers nodes emitted before the first BeginIter.
	Prelude Range
	// IterRange[k] covers the nodes of iteration k.
	IterRange []Range

	// CritPath is the longest dependence chain length in nodes, a lower
	// bound on schedulable latency regardless of parallelism.
	CritPath int
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.Trace.Nodes) }

// NodeAddr returns the absolute accelerator-virtual address accessed by
// memory node i. Calling it for non-memory nodes is a bug.
func (g *Graph) NodeAddr(i int32) uint64 {
	n := &g.Trace.Nodes[i]
	if n.Arr < 0 {
		panic(fmt.Sprintf("ddg: node %d (%v) is not a memory access", i, n.Kind))
	}
	return g.Bases[n.Arr] + uint64(n.Addr)
}

// ArrayRange returns the [base, base+len) address span of array a.
func (g *Graph) ArrayRange(a int16) (base, limit uint64) {
	base = g.Bases[a]
	return base, base + uint64(g.Trace.Arrays[a].Bytes())
}

// memState tracks the accesses to one array element since its last store:
// the store itself and the newest load, from which Build's loadLink leads
// to the older ones.
type memState struct{ lastStore, lastLoad int32 }

// arrayMem holds the memState of each element of one array; a memory node
// at byte offset off accesses element off >> shift.
type arrayMem struct {
	elems []memState
	shift uint8
}

// Build constructs the DDDG for tr. It panics if the trace violates builder
// invariants (dependences must point strictly backwards, iteration labels
// must be nondecreasing, memory nodes must access whole elements of their
// array) since those always indicate kernel bugs.
func Build(tr *trace.Trace) *Graph {
	g := &Graph{Trace: tr}
	n := len(tr.Nodes)

	// Assign page-aligned array base addresses.
	g.Bases = make([]uint64, len(tr.Arrays))
	next := uint64(PageSize) // leave page 0 unmapped
	for i, a := range tr.Arrays {
		g.Bases[i] = next
		sz := uint64(a.Bytes())
		next += (sz + PageSize - 1) / PageSize * PageSize
		if sz%PageSize == 0 {
			next += PageSize // keep arrays on distinct pages even when exact
		}
	}

	// Iteration ranges.
	g.Prelude = Range{0, 0}
	g.IterRange = make([]Range, tr.Iters)
	lastIter := int32(-1)
	for i := range tr.Nodes {
		it := tr.Nodes[i].Iter
		if it < lastIter {
			panic(fmt.Sprintf("ddg: iteration labels decrease at node %d", i))
		}
		for lastIter < it {
			// Close the previous range, open the next.
			if lastIter < 0 {
				g.Prelude.End = int32(i)
			} else {
				g.IterRange[lastIter].End = int32(i)
			}
			lastIter++
			if lastIter >= 0 && int(lastIter) < tr.Iters {
				g.IterRange[lastIter].Start = int32(i)
			}
		}
	}
	if lastIter < 0 {
		g.Prelude.End = int32(n)
	} else if int(lastIter) < tr.Iters {
		g.IterRange[lastIter].End = int32(n)
	}
	// Iterations that emitted no nodes keep zero ranges; normalize any
	// trailing unset ranges.
	for k := int(lastIter) + 1; k < tr.Iters && k >= 0; k++ {
		g.IterRange[k] = Range{int32(n), int32(n)}
	}

	// One walk over the nodes appends node i's distinct predecessors
	// (register deps, then RAW/WAW/WAR memory deps) to preds, right after
	// node i-1's, and takes its in-degree, its depth on the longest chain
	// and its producers' successor counts. A producer f's count goes to
	// SuccIdx[f+2], so that after the prefix sum SuccIdx[f+1] is f's first
	// successor slot and serves as its fill cursor.
	preds := make([]int32, 0, 2*n) // no MachSuite kernel has more than 2n edges
	g.InDeg = make([]int32, n)
	g.SuccIdx = make([]int32, n+1)
	depth := make([]int32, n)
	// loadLink[ld] is the load of ld's element before ld since that
	// element's last store, or NoDep.
	loadLink := make([]int32, n)
	mem := make([]arrayMem, len(tr.Arrays))
	for a, arr := range tr.Arrays {
		elems := make([]memState, arr.Len)
		for e := range elems {
			elems[e] = memState{trace.NoDep, trace.NoDep}
		}
		mem[a] = arrayMem{elems, uint8(bits.TrailingZeros32(arr.Elem.Size()))}
	}
	maxd := int32(0)
	for i := range tr.Nodes {
		nd := &tr.Nodes[i]
		id := int32(i)
		start := len(preds)
		for _, d := range nd.Deps {
			preds = addPred(preds, start, d, id)
		}
		if nd.Kind.IsMem() {
			m := &mem[nd.Arr]
			e := nd.Addr >> m.shift
			if e<<m.shift != nd.Addr || e >= uint32(len(m.elems)) {
				panic(fmt.Sprintf("ddg: node %d accesses byte %d of array %d, not one of its elements", i, nd.Addr, nd.Arr))
			}
			st := &m.elems[e]
			preds = addPred(preds, start, st.lastStore, id) // RAW or WAW
			switch nd.Kind {
			case trace.OpLoad:
				loadLink[i] = st.lastLoad
				st.lastLoad = id
			case trace.OpStore:
				for ld := st.lastLoad; ld != trace.NoDep; ld = loadLink[ld] {
					preds = addPred(preds, start, ld, id) // WAR
				}
				st.lastStore, st.lastLoad = id, trace.NoDep
			}
		}
		d := int32(0)
		for _, f := range preds[start:] {
			g.SuccIdx[f+2]++
			d = max(d, depth[f])
		}
		g.InDeg[i] = int32(len(preds) - start)
		depth[i] = d + 1
		maxd = max(maxd, d+1)
	}
	g.CritPath = int(maxd)

	// Fill Succ in ascending destination order, so each producer's
	// successors ascend.
	for i := 2; i <= n; i++ {
		g.SuccIdx[i] += g.SuccIdx[i-1]
	}
	g.Succ = make([]int32, len(preds))
	p := 0
	for to := range g.InDeg {
		for _, f := range preds[p : p+int(g.InDeg[to])] {
			g.Succ[g.SuccIdx[f+1]] = int32(to)
			g.SuccIdx[f+1]++
		}
		p += int(g.InDeg[to])
	}
	return g
}

// addPred appends from to preds unless it is absent or already among
// node to's predecessors, preds[start:].
func addPred(preds []int32, start int, from, to int32) []int32 {
	if from == trace.NoDep {
		return preds
	}
	if from >= to {
		panic(fmt.Sprintf("ddg: dependence %d -> %d not strictly backwards", from, to))
	}
	for _, p := range preds[start:] {
		if p == from {
			return preds
		}
	}
	return append(preds, from)
}

// Successors returns the successor list of node i.
func (g *Graph) Successors(i int32) []int32 {
	return g.Succ[g.SuccIdx[i]:g.SuccIdx[i+1]]
}

// Predecessors reconstructs the predecessor list of node i (register plus
// memory dependences). It is O(edges) and intended for tests and debugging,
// not the scheduler hot path.
func (g *Graph) Predecessors(i int32) []int32 {
	var preds []int32
	for from := int32(0); from < int32(g.NumNodes()); from++ {
		for _, to := range g.Successors(from) {
			if to == i {
				preds = append(preds, from)
			}
		}
	}
	return preds
}

// CheckInvariants validates structural properties: CSR consistency, edge
// direction, and in-degree agreement. It returns an error describing the
// first violation found.
func (g *Graph) CheckInvariants() error {
	n := g.NumNodes()
	if len(g.SuccIdx) != n+1 {
		return fmt.Errorf("ddg: SuccIdx length %d, want %d", len(g.SuccIdx), n+1)
	}
	indeg := make([]int32, n)
	for from := 0; from < n; from++ {
		if g.SuccIdx[from] > g.SuccIdx[from+1] {
			return fmt.Errorf("ddg: SuccIdx not monotone at %d", from)
		}
		for _, to := range g.Successors(int32(from)) {
			if to <= int32(from) {
				return fmt.Errorf("ddg: edge %d -> %d not forward", from, to)
			}
			if to >= int32(n) {
				return fmt.Errorf("ddg: edge %d -> %d out of range", from, to)
			}
			indeg[to]++
		}
	}
	for i := 0; i < n; i++ {
		if indeg[i] != g.InDeg[i] {
			return fmt.Errorf("ddg: node %d in-degree %d, recomputed %d", i, g.InDeg[i], indeg[i])
		}
	}
	return nil
}
