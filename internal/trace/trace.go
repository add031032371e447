// Package trace is the gem5-Aladdin front-end: it captures the dynamic
// execution of an accelerated kernel as a trace of primitive operations.
//
// In the original system, Aladdin instruments an LLVM build of the kernel and
// records the dynamic LLVM IR instruction stream. Here, kernels are ordinary
// Go functions written against a Builder. Every arithmetic helper both
// computes the concrete result (so kernels are functionally testable against
// pure-Go references) and appends a trace node carrying its true register
// dependences via SSA-style Value handles. Loads and stores record concrete
// byte addresses, exactly the artifact Aladdin's profiler produces.
//
// Iteration labels (Builder.BeginIter) mark the boundaries of the loop body
// that the accelerator unrolls across datapath lanes; the scheduler maps
// iteration i to lane i mod L, mirroring how Aladdin realizes loop unrolling.
package trace

import (
	"fmt"
	"math"
	"slices"
)

// OpKind identifies a primitive operation in the dynamic trace. The set
// mirrors the LLVM IR subset Aladdin schedules: integer and floating-point
// arithmetic, bitwise logic, comparisons, selects, and memory accesses.
type OpKind uint8

// Operation kinds.
const (
	OpNop OpKind = iota
	OpLoad
	OpStore
	OpIAdd
	OpISub
	OpIMul
	OpIDiv
	OpIAnd
	OpIOr
	OpIXor
	OpIShl
	OpIShr
	OpICmp
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFSqrt
	OpFExp
	OpFCmp
	OpSelect
	opKindCount
)

var opNames = [...]string{
	OpNop: "nop", OpLoad: "load", OpStore: "store",
	OpIAdd: "iadd", OpISub: "isub", OpIMul: "imul", OpIDiv: "idiv",
	OpIAnd: "iand", OpIOr: "ior", OpIXor: "ixor", OpIShl: "ishl", OpIShr: "ishr",
	OpICmp: "icmp", OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul",
	OpFDiv: "fdiv", OpFSqrt: "fsqrt", OpFExp: "fexp", OpFCmp: "fcmp",
	OpSelect: "select",
}

// String returns the mnemonic for k.
func (k OpKind) String() string {
	if int(k) < len(opNames) && opNames[k] != "" {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// IsMem reports whether k is a memory access.
func (k OpKind) IsMem() bool { return k == OpLoad || k == OpStore }

// NumKinds is the number of distinct operation kinds, for table sizing.
const NumKinds = int(opKindCount)

// ElemKind is the element type of a traced array.
type ElemKind uint8

// Array element types.
const (
	U8 ElemKind = iota
	I32
	F64
)

// Size returns the element size in bytes.
func (e ElemKind) Size() uint32 {
	switch e {
	case U8:
		return 1
	case I32:
		return 4
	default:
		return 8
	}
}

// Direction describes how an array moves between host memory and the
// accelerator, i.e. whether the kernel contains dmaLoad/dmaStore calls for
// it in the paper's programming model.
type Direction uint8

// Array transfer directions.
const (
	// Local arrays are private intermediates: never transferred, always
	// held in scratchpads even for cache-based designs (Sec IV-D).
	Local Direction = iota
	// In arrays are dmaLoad-ed before compute (or demand-fetched through
	// the accelerator cache).
	In
	// Out arrays are dmaStore-d after compute (or written back through
	// the cache).
	Out
	// InOut arrays are both read and written by the accelerator.
	InOut
)

// IsIn reports whether the array carries input data into the accelerator.
func (d Direction) IsIn() bool { return d == In || d == InOut }

// IsOut reports whether the array carries results out of the accelerator.
func (d Direction) IsOut() bool { return d == Out || d == InOut }

// Array is a kernel-visible memory region. Data lives in a raw bit store so
// all element kinds share one representation.
type Array struct {
	ID   int16
	Name string
	Elem ElemKind
	Len  int // element count
	Dir  Direction

	bits []uint64
}

// Bytes returns the array footprint in bytes.
func (a *Array) Bytes() uint32 { return uint32(a.Len) * a.Elem.Size() }

// Value is an SSA-style handle to the result of a trace node. It carries the
// producing node index (or -1 for constants and host-initialized data) plus
// the concrete bits so kernels compute real results while being traced.
type Value struct {
	node int32
	bits uint64
}

// Node reports the producing trace node, or -1 if the value is constant.
func (v Value) Node() int32 { return v.node }

// Uint returns the value interpreted as an unsigned integer.
func (v Value) Uint() uint64 { return v.bits }

// Int returns the value interpreted as a signed integer.
func (v Value) Int() int64 { return int64(v.bits) }

// Float returns the value interpreted as a float64.
func (v Value) Float() float64 { return math.Float64frombits(v.bits) }

// Bool reports whether the value is nonzero (comparison results).
func (v Value) Bool() bool { return v.bits != 0 }

// NoDep marks an absent dependence slot in a Node.
const NoDep int32 = -1

// Node is one dynamic operation in the trace.
type Node struct {
	Kind OpKind
	Iter int32    // iteration label for lane mapping; -1 before the first BeginIter
	Deps [3]int32 // producing nodes; NoDep for unused slots
	Arr  int16    // array index for memory ops; -1 otherwise
	Addr uint32   // byte offset within the array, for memory ops
	Size uint8    // access size in bytes, for memory ops
}

// Trace is the dynamic profile of one kernel invocation.
type Trace struct {
	Name   string
	Nodes  []Node
	Arrays []*Array
	Iters  int // number of BeginIter calls (0 means a single implicit iteration)
}

// NumNodes returns the dynamic operation count.
func (t *Trace) NumNodes() int { return len(t.Nodes) }

// OpCounts tallies nodes per operation kind.
func (t *Trace) OpCounts() [NumKinds]int {
	var c [NumKinds]int
	for i := range t.Nodes {
		c[t.Nodes[i].Kind]++
	}
	return c
}

// FootprintBytes sums the sizes of arrays moved in or out of the accelerator.
func (t *Trace) FootprintBytes() (in, out uint64) {
	for _, a := range t.Arrays {
		if a.Dir.IsIn() {
			in += uint64(a.Bytes())
		}
		if a.Dir.IsOut() {
			out += uint64(a.Bytes())
		}
	}
	return in, out
}

// chunkNodes is the node count of one Builder chunk.
const chunkNodes = 4096

// Builder records a kernel's dynamic trace while executing it functionally.
// It keeps the nodes in fixed-size chunks, so that recording never copies a
// node; Finish copies each one once, into the trace.
type Builder struct {
	name   string
	full   [][]Node // filled chunks, chunkNodes nodes each
	cur    []Node   // the chunk being filled
	arrays []*Array
	iter   int32
	iters  int
}

// NewBuilder returns an empty trace builder for the named kernel.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, iter: -1}
}

// Finish seals the builder and returns the trace.
func (b *Builder) Finish() *Trace {
	return &Trace{Name: b.name, Nodes: slices.Concat(append(b.full, b.cur)...),
		Arrays: b.arrays, Iters: b.iters}
}

// Alloc declares an array visible to the accelerator.
func (b *Builder) Alloc(name string, elem ElemKind, n int, dir Direction) *Array {
	if n <= 0 {
		panic(fmt.Sprintf("trace: array %q has non-positive length %d", name, n))
	}
	a := &Array{ID: int16(len(b.arrays)), Name: name, Elem: elem, Len: n, Dir: dir,
		bits: make([]uint64, n)}
	b.arrays = append(b.arrays, a)
	return a
}

// BeginIter marks the start of the next unrollable loop iteration. Nodes
// emitted afterwards belong to this iteration for lane assignment.
func (b *Builder) BeginIter() {
	b.iter++
	b.iters++
}

// Iter returns the current iteration label.
func (b *Builder) Iter() int32 { return b.iter }

func (b *Builder) emit(n Node) int32 {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]Node, 0, chunkNodes)
	}
	id := int32(len(b.full)*chunkNodes + len(b.cur))
	n.Iter = b.iter
	b.cur = append(b.cur, n)
	return id
}

func deps3(a, bb, c int32) [3]int32 { return [3]int32{a, bb, c} }

// --- Host-side (untraced) data initialization and readback ---

// SetF64 initializes element i without emitting a trace node (host writes).
func (b *Builder) SetF64(a *Array, i int, v float64) { a.bits[i] = math.Float64bits(v) }

// SetInt initializes element i without emitting a trace node (host writes).
func (b *Builder) SetInt(a *Array, i int, v int64) { a.bits[i] = uint64(v) }

// GetF64 reads element i without emitting a trace node (host reads).
func (b *Builder) GetF64(a *Array, i int) float64 { return math.Float64frombits(a.bits[i]) }

// GetInt reads element i without emitting a trace node (host reads).
func (b *Builder) GetInt(a *Array, i int) int64 { return int64(a.bits[i]) }

// --- Constants ---

// ConstF materializes a floating-point constant (no trace node: constants
// are baked into the datapath).
func (b *Builder) ConstF(v float64) Value {
	return Value{node: NoDep, bits: math.Float64bits(v)}
}

// ConstI materializes an integer constant.
func (b *Builder) ConstI(v int64) Value { return Value{node: NoDep, bits: uint64(v)} }

// --- Memory operations ---

func (b *Builder) checkIdx(a *Array, i int) {
	if i < 0 || i >= a.Len {
		panic(fmt.Sprintf("trace: %s[%d] out of range (len %d)", a.Name, i, a.Len))
	}
}

// Load reads element i of a, emitting a load node. dep, when non-zero-value,
// is the value that produced the index (indirect accesses such as vec[col[j]]
// must pass the loaded index so the DDDG carries the true dependence).
func (b *Builder) Load(a *Array, i int, dep ...Value) Value {
	b.checkIdx(a, i)
	d := NoDep
	if len(dep) > 0 {
		d = dep[0].node
	}
	id := b.emit(Node{Kind: OpLoad, Deps: deps3(d, NoDep, NoDep), Arr: a.ID,
		Addr: uint32(i) * a.Elem.Size(), Size: uint8(a.Elem.Size())})
	return Value{node: id, bits: a.bits[i]}
}

// Store writes v to element i of a, emitting a store node. dep optionally
// carries the index-producing value for indirect stores.
func (b *Builder) Store(a *Array, i int, v Value, dep ...Value) {
	b.checkIdx(a, i)
	d := NoDep
	if len(dep) > 0 {
		d = dep[0].node
	}
	a.bits[i] = v.bits
	b.emit(Node{Kind: OpStore, Deps: deps3(v.node, d, NoDep), Arr: a.ID,
		Addr: uint32(i) * a.Elem.Size(), Size: uint8(a.Elem.Size())})
}

// --- Floating-point arithmetic ---

func (b *Builder) fbin(k OpKind, x, y Value, r float64) Value {
	id := b.emit(Node{Kind: k, Deps: deps3(x.node, y.node, NoDep), Arr: -1})
	return Value{node: id, bits: math.Float64bits(r)}
}

// FAdd emits x + y.
func (b *Builder) FAdd(x, y Value) Value { return b.fbin(OpFAdd, x, y, x.Float()+y.Float()) }

// FSub emits x - y.
func (b *Builder) FSub(x, y Value) Value { return b.fbin(OpFSub, x, y, x.Float()-y.Float()) }

// FMul emits x * y.
func (b *Builder) FMul(x, y Value) Value { return b.fbin(OpFMul, x, y, x.Float()*y.Float()) }

// FDiv emits x / y.
func (b *Builder) FDiv(x, y Value) Value { return b.fbin(OpFDiv, x, y, x.Float()/y.Float()) }

// FSqrt emits sqrt(x).
func (b *Builder) FSqrt(x Value) Value {
	id := b.emit(Node{Kind: OpFSqrt, Deps: deps3(x.node, NoDep, NoDep), Arr: -1})
	return Value{node: id, bits: math.Float64bits(math.Sqrt(x.Float()))}
}

// FExp emits e**x (a pipelined lookup-table/CORDIC-style unit in hardware;
// needed by the sigmoid activations of backprop-class kernels).
func (b *Builder) FExp(x Value) Value {
	id := b.emit(Node{Kind: OpFExp, Deps: deps3(x.node, NoDep, NoDep), Arr: -1})
	return Value{node: id, bits: math.Float64bits(math.Exp(x.Float()))}
}

// FLess emits the comparison x < y, producing 1 or 0.
func (b *Builder) FLess(x, y Value) Value {
	id := b.emit(Node{Kind: OpFCmp, Deps: deps3(x.node, y.node, NoDep), Arr: -1})
	var r uint64
	if x.Float() < y.Float() {
		r = 1
	}
	return Value{node: id, bits: r}
}

// --- Integer arithmetic ---

func (b *Builder) ibin(k OpKind, x, y Value, r uint64) Value {
	id := b.emit(Node{Kind: k, Deps: deps3(x.node, y.node, NoDep), Arr: -1})
	return Value{node: id, bits: r}
}

// IAdd emits x + y.
func (b *Builder) IAdd(x, y Value) Value { return b.ibin(OpIAdd, x, y, x.bits+y.bits) }

// ISub emits x - y.
func (b *Builder) ISub(x, y Value) Value { return b.ibin(OpISub, x, y, x.bits-y.bits) }

// IMul emits x * y.
func (b *Builder) IMul(x, y Value) Value { return b.ibin(OpIMul, x, y, x.bits*y.bits) }

// IDiv emits x / y (unsigned).
func (b *Builder) IDiv(x, y Value) Value { return b.ibin(OpIDiv, x, y, x.bits/y.bits) }

// And emits x & y.
func (b *Builder) And(x, y Value) Value { return b.ibin(OpIAnd, x, y, x.bits&y.bits) }

// Or emits x | y.
func (b *Builder) Or(x, y Value) Value { return b.ibin(OpIOr, x, y, x.bits|y.bits) }

// Xor emits x ^ y.
func (b *Builder) Xor(x, y Value) Value { return b.ibin(OpIXor, x, y, x.bits^y.bits) }

// Shl emits x << k for a constant shift amount.
func (b *Builder) Shl(x Value, k uint) Value {
	id := b.emit(Node{Kind: OpIShl, Deps: deps3(x.node, NoDep, NoDep), Arr: -1})
	return Value{node: id, bits: x.bits << k}
}

// Shr emits x >> k for a constant shift amount.
func (b *Builder) Shr(x Value, k uint) Value {
	id := b.emit(Node{Kind: OpIShr, Deps: deps3(x.node, NoDep, NoDep), Arr: -1})
	return Value{node: id, bits: x.bits >> k}
}

// ILess emits the signed comparison x < y, producing 1 or 0.
func (b *Builder) ILess(x, y Value) Value {
	id := b.emit(Node{Kind: OpICmp, Deps: deps3(x.node, y.node, NoDep), Arr: -1})
	var r uint64
	if x.Int() < y.Int() {
		r = 1
	}
	return Value{node: id, bits: r}
}

// IEq emits the comparison x == y, producing 1 or 0.
func (b *Builder) IEq(x, y Value) Value {
	id := b.emit(Node{Kind: OpICmp, Deps: deps3(x.node, y.node, NoDep), Arr: -1})
	var r uint64
	if x.bits == y.bits {
		r = 1
	}
	return Value{node: id, bits: r}
}

// Select emits cond ? x : y.
func (b *Builder) Select(cond, x, y Value) Value {
	id := b.emit(Node{Kind: OpSelect, Deps: deps3(cond.node, x.node, y.node), Arr: -1})
	r := y.bits
	if cond.Bool() {
		r = x.bits
	}
	return Value{node: id, bits: r}
}
