// Package gem5aladdin is a Go reproduction of gem5-Aladdin (Shao et al.,
// MICRO 2016): an SoC simulator that co-simulates pre-RTL fixed-function
// accelerators with the system they live in — DMA engines and the software
// coherence management around them, hardware-managed coherent caches,
// TLBs, a shared system bus, and DRAM — so that accelerator
// microarchitectures can be designed with system-level effects (data
// movement, coherence, contention) accounted for.
//
// # Writing a kernel
//
// Kernels are ordinary Go functions written against a Builder. Arithmetic
// helpers compute real results while recording the dynamic trace Aladdin
// schedules; BeginIter marks the loop iterations that unroll across
// datapath lanes; Alloc declares arrays with their host/accelerator
// transfer direction:
//
//	b := gem5aladdin.NewKernel("saxpy")
//	x := b.Alloc("x", gem5aladdin.F64, n, gem5aladdin.In)
//	y := b.Alloc("y", gem5aladdin.F64, n, gem5aladdin.InOut)
//	for i := 0; i < n; i++ { b.SetF64(x, i, ...) }        // host writes
//	a := b.ConstF(2.0)
//	for i := 0; i < n; i++ {
//		b.BeginIter()
//		b.Store(y, i, b.FAdd(b.FMul(a, b.Load(x, i)), b.Load(y, i)))
//	}
//	k := gem5aladdin.Compile(gem5aladdin.BuildGraph(b.Finish()))
//	result, err := gem5aladdin.Run(k, gem5aladdin.DefaultConfig())
//
// # Design spaces
//
// Compile a kernel once and sweep Configs over the shared artifact: the
// Kernel precomputes everything that does not depend on the design point
// (lane schedules, operation classes, transfer manifests), so each point
// costs only the simulation itself. Sweep, ParetoFront, and EDPOptimal
// (this package) drive the co-design studies programmatically, and cmd/dse
// does the same from the command line; the nineteen MachSuite benchmarks
// of the paper's evaluation are available through Benchmarks and
// BuildBenchmark.
package gem5aladdin

import (
	"io"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/trace"
)

// Builder records a kernel's dynamic trace while executing it
// functionally. See the package example and internal/trace for the full
// operation set.
type Builder = trace.Builder

// Trace is the recorded dynamic profile of one kernel invocation.
type Trace = trace.Trace

// Array is a kernel-visible memory region.
type Array = trace.Array

// Value is an SSA-style handle to a traced operation's result.
type Value = trace.Value

// ElemKind selects an array's element type.
type ElemKind = trace.ElemKind

// Array element types.
const (
	U8  = trace.U8
	I32 = trace.I32
	F64 = trace.F64
)

// Direction declares how an array moves between host and accelerator.
type Direction = trace.Direction

// Transfer directions.
const (
	Local = trace.Local
	In    = trace.In
	Out   = trace.Out
	InOut = trace.InOut
)

// Graph is the dynamic data dependence graph scheduled by the simulator.
type Graph = ddg.Graph

// Config is one accelerator design point plus its system context; see
// DefaultConfig for the paper's nominal system.
type Config = soc.Config

// MemKind selects the accelerator's memory system.
type MemKind = soc.MemKind

// Memory systems: standalone Aladdin, scratchpads+DMA, coherent cache, and
// an ideal single-cycle memory for decomposition studies.
const (
	Isolated = soc.Isolated
	DMA      = soc.DMA
	Cache    = soc.Cache
	Ideal    = soc.Ideal
)

// FabricConfig parameterizes the interconnect topology (Config.Fabric); the
// zero value is the round-robin bus.
type FabricConfig = soc.FabricConfig

// FabricKind selects the interconnect topology backend.
type FabricKind = soc.FabricKind

// Interconnect backends: the split-transaction round-robin bus, the
// AXI-like burst-based crossbar, and the 2D mesh NoC.
const (
	FabricBus      = soc.FabricBus
	FabricCrossbar = soc.FabricCrossbar
	FabricMesh     = soc.FabricMesh
)

// ParseFabricKind maps a fabric name ("bus", "crossbar", "mesh") to its kind.
func ParseFabricKind(s string) (FabricKind, error) { return soc.ParseFabricKind(s) }

// FabricKinds lists every interconnect backend in canonical axis order.
func FabricKinds() []FabricKind { return soc.FabricKinds() }

// TrafficConfig parameterizes the background CPU traffic generator
// (Config.Traffic): every Period ticks it issues a Bytes-sized access on the
// shared fabric, modeling host cores competing for the interconnect.
type TrafficConfig = soc.TrafficConfig

// Tick is simulated time in picoseconds (the engine's base unit).
type Tick = sim.Tick

// Time units for Tick-valued fields such as TrafficConfig.Period.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
)

// RunResult carries runtime, the flush/DMA/compute breakdown, energy,
// EDP, and per-component statistics for one simulated invocation.
type RunResult = soc.RunResult

// Breakdown is the four-way runtime decomposition of Sec IV-C.
type Breakdown = soc.Breakdown

// NewKernel starts recording a kernel trace.
func NewKernel(name string) *Builder { return trace.NewBuilder(name) }

// DefaultConfig returns the paper's nominal system configuration.
func DefaultConfig() Config { return soc.DefaultConfig() }

// BuildGraph constructs the dependence graph for a trace. Build it once,
// Compile it, and reuse the Kernel across Run calls when sweeping design
// points.
func BuildGraph(tr *Trace) *Graph { return ddg.Build(tr) }

// Kernel is the compiled, immutable form of one kernel: the dependence
// graph plus every product of it that does not depend on the design point
// (lane schedules, operation classes, DMA transfer manifests, footprints).
// Compile once per kernel; a Kernel is safe to share read-only across
// goroutines, sweeps, and repeated Run calls.
type Kernel = soc.Compiled

// Compile derives the reusable kernel artifact from a prebuilt graph.
func Compile(g *Graph) *Kernel { return soc.Compile(g) }

// Run simulates one invocation of the compiled kernel under cfg.
func Run(k *Kernel, cfg Config) (*RunResult, error) { return soc.Run(k, cfg) }

// RunTrace simulates one invocation straight from a recorded trace,
// building and compiling internally — convenient for one-shot runs; sweeps
// should Compile once instead.
func RunTrace(tr *Trace, cfg Config) (*RunResult, error) { return soc.RunTrace(tr, cfg) }

// MultiResult is the outcome of a multi-accelerator run.
type MultiResult = soc.MultiResult

// RunMulti launches several accelerators simultaneously on one shared
// bus, DRAM, and coherence fabric (the multi-accelerator SoC of the
// paper's Fig 3 diagram). System-level parameters come from the first
// config. The same Kernel may appear more than once.
func RunMulti(ks []*Kernel, cfgs []Config) (*MultiResult, error) {
	return soc.RunMulti(ks, cfgs)
}

// RepeatResult is the outcome of a repeated-invocation run.
type RepeatResult = soc.RepeatResult

// RunRepeated invokes the accelerator several times back to back; cache
// and TLB contents persist across rounds. With reuseInputs=true (resident
// weights/coefficients) a cache interface amortizes its cold misses,
// while DMA pays the full transfer each call.
func RunRepeated(k *Kernel, cfg Config, invocations int, reuseInputs bool) (*RepeatResult, error) {
	return soc.RunRepeated(k, cfg, invocations, reuseInputs)
}

// ReassociateReductions rewrites serial reduction chains (acc = acc op x)
// of length >= 3 into balanced trees, one of Aladdin's DDDG optimizations.
// It mutates the trace in place and returns the number of chains
// rewritten; memory-operation order (and so memory dependences) is
// preserved. Assumes reassociation-tolerant functional units, as HLS
// reduction pragmas do.
func ReassociateReductions(tr *Trace) int { return trace.ReassociateReductions(tr) }

// SaveTrace serializes a recorded trace so a profile can be captured once
// and re-scheduled across design points later (Aladdin's own workflow).
func SaveTrace(tr *Trace, w io.Writer) error { return tr.Encode(w) }

// LoadTrace reads a trace written by SaveTrace, revalidating its
// structural invariants.
func LoadTrace(r io.Reader) (*Trace, error) { return trace.ReadTrace(r) }

// Benchmarks lists the reimplemented MachSuite kernels.
func Benchmarks() []string { return machsuite.Names() }

// BuildBenchmark traces one MachSuite kernel on its default problem size,
// verifying functional correctness against its pure-Go reference.
func BuildBenchmark(name string) (*Trace, error) {
	k, err := machsuite.ByName(name)
	if err != nil {
		return nil, err
	}
	return k.Build()
}
