// Package core is the heart of the gem5-Aladdin reproduction: the Aladdin
// accelerator datapath simulator, integrated with the SoC's memory systems
// so that dynamic accelerator-system interactions (DMA arrival, cache
// misses, TLB walks, bus contention) feed back into the schedule.
//
// The datapath model follows Sec II and IV-D of the paper:
//
//   - An accelerator is L parallel lanes; loop iteration i runs on lane
//     i mod L (how Aladdin realizes loop unrolling).
//   - Each lane is a chain of functional units driven by an FSM: it issues
//     its iteration's operations in order, one per cycle, with pipelined
//     functional units. An operation issues only when its DDDG dependences
//     have resolved.
//   - Memory behavior is pluggable: ideal single-cycle memory (isolated
//     Aladdin), partitioned scratchpads with optional full/empty-bit gating
//     (DMA designs), or a hardware-managed cache with MSHRs where a miss
//     stalls only the issuing lane (cache designs).
//   - When lanes finish an iteration they synchronize with all other lanes
//     before the next wave of iterations begins.
package core

import (
	"fmt"
	"math/bits"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/trace"
)

// OpLatencies maps operation kinds to functional-unit latency in cycles.
type OpLatencies [trace.NumKinds]uint8

// DefaultOpLatencies returns the 100 MHz functional-unit latencies used to
// match Vivado HLS default designs (integer ops single-cycle; FP adds 3,
// multiplies 4, divides/square roots long-latency).
func DefaultOpLatencies() OpLatencies {
	var l OpLatencies
	for k := range l {
		l[k] = 1
	}
	l[trace.OpIMul] = 3
	l[trace.OpIDiv] = 10
	l[trace.OpFAdd] = 3
	l[trace.OpFSub] = 3
	l[trace.OpFMul] = 4
	l[trace.OpFDiv] = 15
	l[trace.OpFSqrt] = 15
	l[trace.OpFExp] = 18
	return l
}

// IssueStatus is a memory model's answer to an issue attempt.
type IssueStatus uint8

// Issue outcomes.
const (
	// IssueRetry: a port is busy; the lane stalls and retries next cycle.
	IssueRetry IssueStatus = iota
	// IssueLocal: access accepted, completes with single-cycle latency.
	IssueLocal
	// IssueAsync: access accepted; the lane blocks until the model calls
	// the provided completion callback.
	IssueAsync
	// IssueWait: the data is not there yet (a clear full/empty bit). The
	// lane parks, and asks again once after the datapath's next Wake.
	IssueWait
)

// MemModel abstracts the accelerator's local memory interface.
type MemModel interface {
	// Issue attempts the memory access of node id at the given
	// accelerator cycle. complete must be invoked iff the return is
	// IssueAsync. A model may answer IssueWait only where its owner calls
	// Datapath.Wake whenever the answer may change: a parked lane is not
	// asked again before that.
	Issue(id int32, n *trace.Node, cycle uint64, complete func()) IssueStatus
	// Parked counts one ticked cycle on which the given number of lanes
	// stay parked on IssueWait, as if each had been refused again: the
	// lane-cycles a load waited on a clear full/empty bit. The datapath
	// calls it at most once per cycle, and only with lanes > 0.
	Parked(lanes int)
	// Drained reports whether all outstanding accesses have finished
	// (mfence semantics before signaling completion to the CPU).
	Drained() bool
}

// Config parameterizes the datapath.
type Config struct {
	Lanes     int
	Clock     sim.Clock
	Latencies OpLatencies
	// NoBarrier lets lanes run ahead into later iterations without
	// synchronizing at wave boundaries (correctness is still enforced by
	// the DDDG). An ablation of the paper's lane-synchronization design
	// choice.
	NoBarrier bool
	// RecordSchedule captures per-node issue/complete times in the
	// Result for schedule-validity checking and visualization. Costs
	// memory proportional to the trace; off by default.
	RecordSchedule bool
}

// completionWindow bounds how far ahead (in cycles) a synchronous
// completion can land; it must exceed the largest functional-unit latency.
const completionWindow = 64

// ringEntry is one pending result in the completion ring: the node and the
// wave it counts against.
type ringEntry struct{ id, wave int32 }

// ScheduleEntry records when one node issued and when its result became
// visible, in ticks.
type ScheduleEntry struct {
	Issue    sim.Tick
	Complete sim.Tick
	Lane     int32
}

// Stats aggregates datapath activity. ActiveCycles and the stall counters
// count only cycles on which the datapath ticks. While every unfinished
// lane waits on an async memory completion and no functional-unit result
// is pending, no tick runs, so those cycles count toward Cycles alone.
type Stats struct {
	Cycles       uint64 // cycles from start to completion signal
	ActiveCycles uint64 // ticked cycles that issued an op or had one in flight
	OpsIssued    [trace.NumKinds]uint64
	// MemStalls counts lane-cycles, over ticked cycles, of a lane retrying
	// a memory access, parked on a clear full/empty bit (the lane-cycles a
	// load waited on it, which the scratchpad counts as ReadyBitStalls), or
	// blocked on an async one.
	MemStalls     uint64
	DepStalls     uint64 // lane-cycles, over ticked cycles, stalled on dependences
	BarrierStalls uint64 // lane-cycles, over ticked cycles, stalled on the wave barrier
	// LaneOps counts operations issued per lane; with Cycles it yields
	// per-lane utilization (the paper's "wasted hardware" signal).
	LaneOps []uint64
}

// LaneUtilization returns each lane's issue-slot occupancy in [0,1].
func (s Stats) LaneUtilization() []float64 {
	if s.Cycles == 0 || len(s.LaneOps) == 0 {
		return nil
	}
	out := make([]float64, len(s.LaneOps))
	for i, n := range s.LaneOps {
		out[i] = float64(n) / float64(s.Cycles)
	}
	return out
}

// Result is the outcome of one datapath execution.
type Result struct {
	Start, End sim.Tick
	Stats      Stats
	// ComputeIntervals are the windows in which the datapath was active,
	// merged, for the flush/DMA/compute runtime breakdown.
	ComputeIntervals []obs.Interval
	// Schedule holds per-node issue/complete times when
	// Config.RecordSchedule was set; nil otherwise.
	Schedule []ScheduleEntry
}

// laneState tracks one lane's progress through its assigned iterations.
// iters and waves alias the Program's shared lane layout — read-only here —
// while cur/pc/pending/blocked/class are this run's private cursor.
type laneState struct {
	iters   []ddg.Range // iteration node ranges, in execution order (shared)
	waves   []int32     // wave index of each entry in iters (shared)
	cur     int         // current index into iters
	pc      int32       // next node within the current range
	pending int32       // node awaiting an async memory completion
	blocked bool        // waiting on an async memory completion
	class   laneClass   // what the lane does on the next tick
}

// laneClass is what a lane does on a tick. A lane has exactly one class,
// taken in this precedence: blocked on an async memory completion (a memory
// stall), exhausted (nothing left to issue), held by the wave barrier,
// waiting on a dependence, else ready to attempt its head node. A ready
// lane whose head load was answered IssueWait is parked (laneWait, also a
// memory stall) until the next Wake readies it again; nothing else moves a
// parked lane, since its barrier and dependences cannot close again. Only
// ready lanes are visited on a tick; the other classes add their stalls as
// class counts.
type laneClass uint8

const (
	laneReady laneClass = iota
	laneBlocked
	laneExhausted
	laneBarrier
	laneDep
	laneWait
	numLaneClasses
)

// Datapath is one accelerator instance's scheduler.
type Datapath struct {
	cfg  Config
	eng  *sim.Engine
	prog *Program
	g    *ddg.Graph // prog.Graph(), kept unwrapped for the memory-op path
	mem  MemModel

	indeg []int32
	lanes []laneState
	// ready has one bit per lane whose class is laneReady, so a tick visits
	// those lanes in ascending order without scanning the rest; readyWord
	// backs it up to 64 lanes, so that case allocates nothing. classes counts
	// the lanes in each class.
	ready     []uint64
	readyWord [1]uint64
	classes   [numLaneClasses]int
	// completeFns[i] is lane i's pre-bound async-completion callback: it
	// resolves the lane's pending node. One closure per lane for the
	// datapath's lifetime, instead of one per issue attempt — the single
	// largest allocation source in sweep profiles.
	completeFns []func()

	// laneMod is ceil(2^64 / Lanes), so that laneOf takes k mod Lanes
	// without a divide.
	laneMod uint64

	// wave barrier
	waveRemaining []int
	completeWave  int // highest wave index fully complete

	// completion ring: bucket c%completionWindow holds the nodes whose
	// results become visible at cycle c, each with its wave. Every pending
	// result lands within completionWindow-1 cycles after drained, the
	// last cycle that drained the ring, so a bucket holds one cycle's
	// results and the buckets due at cycle c are those of cycles
	// (drained, c]. occupied is a bitmask of non-empty buckets; the drain
	// walks the due ones in ascending bucket order.
	completions [completionWindow][]ringEntry
	occupied    uint64
	drained     uint64
	pendingSync int // nodes waiting in the ring
	inFlight    int // issued but not yet completed nodes

	cycle         uint64
	startTick     sim.Tick
	tickEv        *sim.Event // pre-bound tick callback, scheduled per cycle not taken inline
	tickScheduled bool
	running       bool
	finished      bool
	done          func(*Result)

	stats      Stats
	laneOpsBuf []uint64 // backing for stats.LaneOps, reused across runs
	intervals  []obs.Interval
	lastActive uint64
	activeOpen bool
	sched      []ScheduleEntry
	probe      *obs.Probe
}

// Scratch recycles one Datapath's buffers across runs: Build hands back the
// same scheduler object with its slices resliced for the new program and
// config, so a sweep worker stops paying the per-design-point allocation of
// dependence counters, lane state, and the completion ring. The zero value
// is ready to use. A Scratch serves one run at a time: the previously built
// Datapath must be finished (or abandoned with its engine) before Build is
// called again.
type Scratch struct {
	dp *Datapath
}

// Build returns a Datapath over compiled program p, reusing the scratch's
// buffers.
func (sc *Scratch) Build(eng *sim.Engine, p *Program, cfg Config, mem MemModel) *Datapath {
	if sc.dp == nil {
		sc.dp = &Datapath{}
	}
	sc.dp.reinit(eng, p, cfg, mem)
	return sc.dp
}

// NewDatapath builds a scheduler over graph g with the given memory model,
// compiling a private Program first. Callers evaluating many design points
// over one kernel should CompileProgram once and use NewDatapathOver or
// Scratch.Build.
func NewDatapath(eng *sim.Engine, g *ddg.Graph, cfg Config, mem MemModel) *Datapath {
	return NewDatapathOver(eng, CompileProgram(g), cfg, mem)
}

// NewDatapathOver builds a scheduler over a compiled program, sharing its
// flat node arrays and lane layouts instead of re-deriving them.
func NewDatapathOver(eng *sim.Engine, p *Program, cfg Config, mem MemModel) *Datapath {
	d := &Datapath{}
	d.reinit(eng, p, cfg, mem)
	return d
}

// Reset rewinds the datapath to its pre-Start state over the same engine,
// graph, config, and memory model, reusing every buffer. The SoC layer uses
// it between invocations of one accelerator (RunRepeated rounds) in place of
// building a fresh scheduler. The caller must ensure the previous run has
// drained (no datapath event still queued on the engine).
func (d *Datapath) Reset() { d.reinit(d.eng, d.prog, d.cfg, d.mem) }

// grow returns s resliced to n elements, reallocating only when capacity is
// insufficient. Contents are unspecified; callers overwrite or zero.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// reinit (re)initializes the datapath in place; see NewDatapath, Reset, and
// Scratch.Build for the three entry points.
func (d *Datapath) reinit(eng *sim.Engine, p *Program, cfg Config, mem MemModel) {
	if cfg.Lanes <= 0 {
		panic("core: non-positive lane count")
	}
	if cfg.Clock.Period == 0 {
		panic("core: zero clock period")
	}
	g := p.Graph()
	n := g.NumNodes()
	for _, lat := range cfg.Latencies {
		if uint64(lat) >= completionWindow {
			panic("core: functional-unit latency exceeds the completion window")
		}
	}
	d.cfg, d.eng, d.prog, d.g, d.mem = cfg, eng, p, g, mem
	d.laneMod = ^uint64(0)/uint64(cfg.Lanes) + 1
	d.indeg = grow(d.indeg, n)
	copy(d.indeg, g.InDeg)
	if d.tickEv == nil {
		d.tickEv = sim.NewEvent(d.tick)
	}
	// Iteration-to-lane assignment comes precomputed from the program:
	// prelude nodes run on lane 0 as wave 0, iteration k of the kernel loop
	// is wave k/L + 1. The per-run state is just the cursors and a copy of
	// the wave-counter template.
	lay := p.layout(cfg.Lanes)
	d.lanes = grow(d.lanes, cfg.Lanes)
	for i := range d.lanes {
		ln := &d.lanes[i]
		ln.iters = lay.lanes[i].iters
		ln.waves = lay.lanes[i].waves
		ln.cur, ln.pc, ln.pending, ln.blocked = 0, -1, 0, false
		ln.class = laneExhausted
	}
	d.waveRemaining = grow(d.waveRemaining, len(lay.waveRemaining))
	copy(d.waveRemaining, lay.waveRemaining)
	d.completeWave = -1
	if d.ready == nil {
		d.ready = d.readyWord[:]
	}
	d.ready = grow(d.ready, (cfg.Lanes+63)/64)
	clear(d.ready)
	d.classes = [numLaneClasses]int{laneExhausted: cfg.Lanes}
	for i := range d.lanes {
		d.classify(i)
	}
	for len(d.completeFns) < cfg.Lanes {
		lane := len(d.completeFns)
		d.completeFns = append(d.completeFns, func() { d.asyncComplete(lane) })
	}
	d.laneOpsBuf = grow(d.laneOpsBuf, cfg.Lanes)
	clear(d.laneOpsBuf)
	d.stats = Stats{LaneOps: d.laneOpsBuf}
	d.sched = nil
	if cfg.RecordSchedule {
		// Escapes into the Result, so never reused.
		d.sched = make([]ScheduleEntry, n)
	}
	for b := range d.completions {
		d.completions[b] = d.completions[b][:0]
	}
	d.occupied, d.drained, d.pendingSync, d.inFlight = 0, 0, 0, 0
	d.cycle, d.startTick = 0, 0
	d.tickScheduled, d.running, d.finished = false, false, false
	d.done = nil
	d.intervals = d.intervals[:0]
	d.lastActive, d.activeOpen = 0, false
	d.probe = nil
}

// AttachProbe wires an observability probe; the datapath fires one span per
// retired node (issue tick to completion tick, named by op kind, with the
// lane attached). Firing needs per-node issue times, so the schedule buffer
// is allocated even when Config.RecordSchedule is off — Result.Schedule
// still honors the config flag.
func (d *Datapath) AttachProbe(p *obs.Probe) {
	d.probe = p
	if d.sched == nil && p.Enabled() {
		d.sched = make([]ScheduleEntry, d.g.NumNodes())
	}
}

// Snapshot returns a copy of the datapath counters accumulated so far.
func (d *Datapath) Snapshot() Stats { return d.stats }

// RegisterStats registers datapath counters under prefix, reading through
// snap at dump time. The indirection matters because the SoC rebuilds the
// datapath for every accelerator invocation: snap reads whichever instance
// is current.
func RegisterStats(reg *obs.Registry, prefix string, snap func() Stats) {
	reg.CounterFunc(prefix+".cycles", "accelerator cycles start to completion",
		func() uint64 { return snap().Cycles })
	reg.CounterFunc(prefix+".active_cycles", "ticked cycles with an op issued or in flight",
		func() uint64 { return snap().ActiveCycles })
	reg.CounterFunc(prefix+".ops_issued", "operations issued across all lanes",
		func() uint64 {
			var total uint64
			for _, n := range snap().OpsIssued {
				total += n
			}
			return total
		})
	reg.CounterFunc(prefix+".mem_stalls", "lane-cycles stalled on memory, over ticked cycles",
		func() uint64 { return snap().MemStalls })
	reg.CounterFunc(prefix+".dep_stalls", "lane-cycles stalled on dependences, over ticked cycles",
		func() uint64 { return snap().DepStalls })
	reg.CounterFunc(prefix+".barrier_stalls", "lane-cycles stalled on the wave barrier, over ticked cycles",
		func() uint64 { return snap().BarrierStalls })
	reg.Formula(prefix+".utilization", "mean per-lane issue-slot occupancy",
		func() float64 {
			util := snap().LaneUtilization()
			if len(util) == 0 {
				return 0
			}
			var sum float64
			for _, u := range util {
				sum += u
			}
			return sum / float64(len(util))
		})
}

// Start begins execution at the current simulation time; done fires once
// every node has completed and the memory model drained.
func (d *Datapath) Start(done func(*Result)) {
	if d.running {
		panic("core: datapath already started")
	}
	d.running = true
	d.done = done
	d.startTick = d.eng.Now()
	d.advanceWaves()
	d.scheduleTick()
}

// Wake nudges the scheduler after an external event (DMA arrival setting a
// full/empty bit) that may unblock stalled lanes: every parked lane is
// ready again and asks the memory model once more on the next tick.
func (d *Datapath) Wake() {
	if !d.running || d.finished {
		return
	}
	if d.classes[laneWait] > 0 {
		for li := range d.lanes {
			if d.lanes[li].class == laneWait {
				d.setClass(li, laneReady)
			}
		}
	}
	d.scheduleTick()
}

func (d *Datapath) scheduleTick() {
	if d.tickScheduled || d.finished {
		return
	}
	d.tickScheduled = true
	// Clock edges are relative to the datapath's start tick (the FSM
	// starts when the accelerator is kicked, not on a global grid).
	now := d.eng.Now()
	c := d.cfg.Clock.CyclesAt(now - d.startTick)
	next := d.startTick + d.cfg.Clock.Cycles(c)
	if next < now {
		next = d.startTick + d.cfg.Clock.Cycles(c+1)
	}
	d.eng.ScheduleEvent(next, d.tickEv)
}

// nextCompletionCycle returns the earliest cycle at which a pending result
// becomes visible: the first occupied bucket after the last drained cycle.
func (d *Datapath) nextCompletionCycle() (uint64, bool) {
	if d.pendingSync == 0 {
		return 0, false
	}
	from := d.drained + 1
	off := bits.TrailingZeros64(bits.RotateLeft64(d.occupied, -int(from%completionWindow)))
	return from + uint64(off), true
}

// cycleAt converts the current tick into an accelerator cycle index.
func (d *Datapath) cycleAt() uint64 {
	return d.cfg.Clock.CyclesAt(d.eng.Now() - d.startTick)
}

// edge returns the tick at which accelerator cycle c begins.
func (d *Datapath) edge(c uint64) sim.Tick { return d.startTick + d.cfg.Clock.Cycles(c) }

// tick runs the datapath's cycles. Each next cycle whose edge is the
// engine's next event anyway is taken inline (sim.Engine.Advance) rather
// than scheduled, so a busy datapath pays no queue round trip per cycle;
// the first one that is not is scheduled. Only the tick off the queue
// converts the time into a cycle; an inline one is the cycle it advanced
// to.
func (d *Datapath) tick() {
	d.tickScheduled = false
	c := d.cycleAt()
	for !d.finished {
		next, ok := d.runCycle(c)
		if !ok {
			return
		}
		if !d.eng.Advance(d.edge(next)) {
			d.eng.ScheduleEvent(d.edge(next), d.tickEv)
			d.tickScheduled = true
			return
		}
		c = next
	}
}

// runCycle runs cycle c, whose edge is the current tick, and returns the
// next cycle to tick at. ok is false once the datapath has finished, or
// while every unfinished lane waits on an async completion (asyncComplete
// and Wake reschedule it).
func (d *Datapath) runCycle(c uint64) (next uint64, ok bool) {
	d.cycle = c

	// Make results visible for completions due at or before c: the buckets
	// of cycles (drained, c], walked low-to-high, in the same order as a
	// full 0..63 scan of every bucket armed for a cycle at or before c.
	if d.pendingSync > 0 {
		due := ^uint64(0)
		if n := c - d.drained; n < completionWindow {
			due = bits.RotateLeft64(1<<n-1, int((d.drained+1)%completionWindow))
		}
		for m := d.occupied & due; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			for _, e := range d.completions[b] {
				d.complete(e.id, e.wave)
			}
			d.pendingSync -= len(d.completions[b])
			d.completions[b] = d.completions[b][:0]
		}
		d.occupied &^= due
	}
	d.drained = c
	d.advanceWaves()

	// Every lane that is not ready stalls this cycle as its class says; a
	// parked lane also counts as a load refused by its full/empty bit.
	d.stats.MemStalls += uint64(d.classes[laneBlocked] + d.classes[laneWait])
	d.stats.BarrierStalls += uint64(d.classes[laneBarrier])
	d.stats.DepStalls += uint64(d.classes[laneDep])
	if n := d.classes[laneWait]; n > 0 {
		d.mem.Parked(n)
	}
	stalled := d.classes[laneBarrier]+d.classes[laneDep]+d.classes[laneWait] > 0
	anyIssued := false
	// An issue changes only its own lane's class, so each word's snapshot
	// stays valid while its lanes issue.
	for w, word := range d.ready {
		for m := word; m != 0; m &= m - 1 {
			li := w<<6 | bits.TrailingZeros64(m)
			ln := &d.lanes[li]
			id := ln.pc
			kind := d.prog.kinds[id]
			lat := uint64(1)
			if kind.IsMem() {
				// pending is set before the attempt so the lane's pre-bound
				// callback resolves the right node; it is only consulted when
				// the model answers IssueAsync (completion callbacks never
				// fire synchronously inside Issue).
				ln.pending = id
				switch d.mem.Issue(id, &d.g.Trace.Nodes[id], d.cycle, d.completeFns[li]) {
				case IssueRetry:
					// The lane stays ready and retries next cycle.
					d.stats.MemStalls++
					stalled = true
					continue
				case IssueWait:
					// The lane parks until the next Wake.
					d.stats.MemStalls++
					stalled = true
					d.setClass(li, laneWait)
					continue
				case IssueAsync:
					lat = 0
					ln.blocked = true
				}
			} else if l := d.cfg.Latencies[kind]; l != 0 {
				lat = uint64(l)
			}
			d.issue(ln, li, id, kind, lat)
			anyIssued = true
		}
	}

	if anyIssued || d.inFlight > 0 {
		d.stats.ActiveCycles++
		d.recordActive(c)
	}
	if d.allDone() {
		d.finish()
		return 0, false
	}

	// Tick next cycle if anything can progress, else at the earliest
	// pending completion, else wait for async wakeups.
	if !anyIssued && !stalled {
		return d.nextCompletionCycle()
	}
	return d.cycle + 1, true
}

func (d *Datapath) issue(ln *laneState, lane int, id int32, kind trace.OpKind, lat uint64) {
	d.stats.OpsIssued[kind]++
	d.stats.LaneOps[lane]++
	ln.pc = id + 1
	d.inFlight++
	if d.sched != nil {
		d.sched[id].Issue = d.eng.Now()
		d.sched[id].Lane = int32(lane)
	}
	if lat > 0 {
		b := (d.cycle + lat) % completionWindow
		d.completions[b] = append(d.completions[b], ringEntry{id, ln.waves[ln.cur]})
		d.occupied |= 1 << b
		d.pendingSync++
	}
	d.classify(lane)
}

// complete makes node id's result visible: successors' dependences resolve
// — readying a lane whose head was waiting on id — and the accounting of
// its wave advances.
func (d *Datapath) complete(id, wave int32) {
	d.inFlight--
	if d.sched != nil {
		d.sched[id].Complete = d.eng.Now()
	}
	if d.probe.Enabled() {
		d.probe.Fire(obs.Event{Name: d.prog.kinds[id].String(),
			Start: uint64(d.sched[id].Issue), End: uint64(d.eng.Now()),
			Lane: d.sched[id].Lane, Count: 1})
	}
	for _, s := range d.g.Successors(id) {
		d.indeg[s]--
		if d.indeg[s] > 0 {
			continue
		}
		if d.indeg[s] < 0 {
			panic(fmt.Sprintf("core: node %d dependence underflow", s))
		}
		if lane := d.laneOf(s); d.lanes[lane].class == laneDep && d.lanes[lane].pc == s {
			d.setClass(lane, laneReady)
		}
	}
	d.waveRemaining[wave]--
	if d.waveRemaining[wave] < 0 {
		panic(fmt.Sprintf("core: wave %d completion underflow", wave))
	}
}

// laneOf returns the lane node id runs on: lane 0 for the prelude, else
// iteration k's lane k mod L. It takes the remainder without a divide
// (Lemire, Kaser and Kurz's fastmod, exact for 32-bit k and L).
func (d *Datapath) laneOf(id int32) int {
	it := d.prog.iter[id]
	if it < 0 {
		return 0
	}
	lane, _ := bits.Mul64(d.laneMod*uint64(it), uint64(d.cfg.Lanes))
	return int(lane)
}

// asyncComplete handles a variable-latency memory completion for the
// lane's pending node. A blocked lane's cursor stays on the iteration it
// issued from, so that entry's wave is the pending node's.
func (d *Datapath) asyncComplete(lane int) {
	ln := &d.lanes[lane]
	d.complete(ln.pending, ln.waves[ln.cur])
	ln.blocked = false
	d.advanceWaves()
	d.classify(lane)
	d.recordActive(d.cycleAt())
	if d.allDone() {
		d.finish()
		return
	}
	d.scheduleTick()
}

// advanceWaves retires every fully complete wave and reclassifies the
// lanes the barrier held.
func (d *Datapath) advanceWaves() {
	from := d.completeWave
	for d.completeWave+1 < len(d.waveRemaining) && d.waveRemaining[d.completeWave+1] == 0 {
		d.completeWave++
	}
	if d.completeWave == from || d.classes[laneBarrier] == 0 {
		return
	}
	for li := range d.lanes {
		if d.lanes[li].class == laneBarrier {
			d.classify(li)
		}
	}
}

// classify recomputes lane li's class from its state. The class changes
// only where that state does: on issue, on an async completion, on a wave
// advance (barrier lanes), and when a dependence-stalled lane's head
// resolves (complete readies it directly).
func (d *Datapath) classify(li int) {
	ln := &d.lanes[li]
	c := laneReady
	switch {
	case ln.blocked:
		c = laneBlocked
	case !ln.seek():
		c = laneExhausted
	case !d.cfg.NoBarrier && int(ln.waves[ln.cur]) > d.completeWave+1:
		// Wave barrier: a node may issue only when every prior wave is
		// fully complete.
		c = laneBarrier
	case d.indeg[ln.pc] != 0:
		c = laneDep
	}
	if c != ln.class {
		d.setClass(li, c)
	}
}

// setClass moves lane li to class c, keeping the counts and ready bits.
func (d *Datapath) setClass(li int, c laneClass) {
	ln := &d.lanes[li]
	d.classes[ln.class]--
	d.classes[c]++
	ln.class = c
	if c == laneReady {
		d.ready[li>>6] |= 1 << (li & 63)
	} else {
		d.ready[li>>6] &^= 1 << (li & 63)
	}
}

// seek moves the lane's cursor to its next unissued node, across finished
// iterations, and reports whether one remains; pc is then that node.
func (ln *laneState) seek() bool {
	for ln.cur < len(ln.iters) {
		r := ln.iters[ln.cur]
		if ln.pc < r.Start {
			ln.pc = r.Start
		}
		if ln.pc < r.End {
			return true
		}
		ln.cur++
		ln.pc = -1
	}
	return false
}

// allDone reports whether every node has completed and the memory model
// drained. No lane is blocked once nothing is in flight.
func (d *Datapath) allDone() bool {
	return d.inFlight == 0 && d.classes[laneExhausted] == len(d.lanes) && d.mem.Drained()
}

// recordActive extends the compute intervals over cycle c.
func (d *Datapath) recordActive(c uint64) {
	if d.activeOpen && c == d.lastActive+1 || (d.activeOpen && c == d.lastActive) {
		d.lastActive = c
		d.intervals[len(d.intervals)-1].End = uint64(d.startTick + d.cfg.Clock.Cycles(c+1))
		return
	}
	start := d.startTick + d.cfg.Clock.Cycles(c)
	d.intervals = append(d.intervals, obs.Interval{Start: uint64(start), End: uint64(start + d.cfg.Clock.Cycles(1))})
	d.activeOpen = true
	d.lastActive = c
}

func (d *Datapath) finish() {
	if d.finished {
		return
	}
	d.finished = true
	end := d.eng.Now()
	d.stats.Cycles = d.cfg.Clock.CyclesCeil(end - d.startTick)
	st := d.stats
	// The Result escapes while laneOpsBuf is recycled on the next run, so
	// the per-lane counters must be cloned out of the shared backing.
	st.LaneOps = append([]uint64(nil), d.stats.LaneOps...)
	res := &Result{
		Start:            d.startTick,
		End:              end,
		Stats:            st,
		ComputeIntervals: obs.Merge(d.intervals),
	}
	if d.cfg.RecordSchedule {
		res.Schedule = d.sched
	}
	if d.done != nil {
		d.done(res)
	}
}
