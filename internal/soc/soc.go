// Package soc composes the full gem5-Aladdin system model: it wires the
// accelerator datapath (internal/core) to the CPU driver, DMA engine,
// scratchpads or caches, TLB, system bus, and DRAM according to a single
// Config, runs one accelerator invocation end to end, and reports runtime,
// the flush/DMA/compute breakdown, energy, and EDP.
//
// This is the experiment entry point: callers Compile a DDDG once into an
// immutable per-kernel artifact, then every figure harness and the design
// space explorer call soc.Run with different Configs over that shared
// Compiled. RunMulti places several accelerators (the ACCEL0/ACCEL1 arrangement of
// the paper's Fig 3 SoC diagram) on one shared bus and memory to study
// shared-resource contention between accelerators.
package soc

import (
	"errors"
	"fmt"
	"math"

	"gem5aladdin/internal/core"
	"gem5aladdin/internal/cpu"
	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/mem/bus"
	"gem5aladdin/internal/mem/cache"
	"gem5aladdin/internal/mem/coherence"
	"gem5aladdin/internal/mem/dma"
	"gem5aladdin/internal/mem/dram"
	"gem5aladdin/internal/mem/spad"
	"gem5aladdin/internal/mem/tlb"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/power"
	"gem5aladdin/internal/sanitize"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/trace"
)

// MemKind selects the accelerator's memory system.
type MemKind uint8

// Memory system kinds.
const (
	// Isolated is standalone Aladdin: scratchpads assumed preloaded, no
	// data movement modeled. The paper's "designed in isolation" baseline.
	Isolated MemKind = iota
	// DMA is scratchpads filled by the DMA engine, with software cache
	// flush/invalidate management.
	DMA
	// Cache is a hardware-managed coherent cache (plus scratchpads for
	// Local arrays).
	Cache
	// Ideal services every access in one cycle with no port limits: the
	// "processing time" baseline of the Burger-style decomposition used
	// in Fig 7.
	Ideal
)

// String names the memory kind.
func (m MemKind) String() string {
	switch m {
	case Isolated:
		return "isolated"
	case DMA:
		return "dma"
	case Cache:
		return "cache"
	case Ideal:
		return "ideal"
	}
	return fmt.Sprintf("MemKind(%d)", uint8(m))
}

// ParseMemKind maps a CLI/wire name to the memory system it selects. Only
// the swept systems have names; "" selects DMA.
func ParseMemKind(s string) (MemKind, error) {
	switch s {
	case "dma", "":
		return DMA, nil
	case "isolated":
		return Isolated, nil
	case "cache":
		return Cache, nil
	}
	return 0, fmt.Errorf("unknown memory system %q (want isolated, dma, or cache)", s)
}

// TrafficConfig enables a background bus agent (shared-resource contention).
type TrafficConfig struct {
	Period sim.Tick
	Bytes  uint32
}

// Config is one accelerator design point plus its system context; the
// fields correspond to the Fig 3 parameter table.
type Config struct {
	Mem MemKind

	// Datapath.
	Lanes   int
	AccelHz float64
	// NoWaveBarrier removes inter-wave lane synchronization (ablation).
	NoWaveBarrier bool
	// RecordSchedule captures per-node issue/complete times in the result
	// for timeline visualization and schedule validation.
	RecordSchedule bool

	// Scratchpads.
	Partitions int
	SpadPorts  int

	// DMA options (Sec IV-B).
	PipelinedDMA bool
	DMATriggered bool
	// NoDMAInterleave disables round-robin descriptor interleaving across
	// arrays, reverting to the paper's array-by-array arrival order (an
	// ablation: interleaving is this implementation's extension, and it
	// strengthens DMA on indirect/multi-array kernels).
	NoDMAInterleave bool
	// DMAChunkBytes overrides the pipelined chunk size (0 = the paper's
	// 4 KB page-sized chunks). An ablation of the Sec IV-B1 choice.
	DMAChunkBytes uint32
	// ReadyBitBytes overrides the full/empty-bit granularity (0 = the CPU
	// cache line, the paper's choice; the array size over two approximates
	// classic double buffering, as Sec IV-B2 notes).
	ReadyBitBytes uint32
	// CoherentDMA makes the DMA engine a coherence participant (IBM
	// Cell-style, the exception the paper cites in Sec IV-A): the CPU
	// performs no flushes or invalidates, and dirty input data is snooped
	// out of the CPU cache during the transfer. An extension experiment.
	CoherentDMA bool

	// Accelerator cache.
	CacheKB        int
	CacheLineBytes int
	CachePorts     int
	CacheAssoc     int
	MSHRs          int
	Prefetch       bool

	// System.
	BusWidthBits int
	BusHz        float64
	// Fabric selects and parameterizes the interconnect topology. The zero
	// value is the round-robin bus, bit-identical to builds predating the
	// Fabric axis.
	Fabric  FabricConfig
	DRAM    dram.Config
	CPU     cpu.Config
	Traffic *TrafficConfig

	// Faults configures deterministic fault injection (internal/fault).
	// The zero value disables every fault class and leaves the simulation
	// bit-identical to a build without the injector.
	Faults fault.Config
	// Sanitize attaches the runtime MOESI invariant checker to the
	// coherence controller. A violation aborts the run with a transaction
	// history dump, surfaced as an ErrAborted-wrapped error.
	Sanitize bool
	// WatchdogTicks, when nonzero, bounds virtual time: a run still busy
	// past the budget aborts with a diagnostic of all in-flight state
	// instead of spinning. Independently of the budget, a run whose event
	// queue drains while MSHRs, bus queues, or DMA transfers are
	// outstanding always aborts with the same diagnostic.
	WatchdogTicks sim.Tick

	// Power model; nil selects power.Default().
	Power *power.Model

	// Obs, when non-nil, registers every component's counters into the
	// observer's registry and — when the observer carries a tracer —
	// subscribes timeline probes on the bus, DRAM, DMA engine, cache, and
	// datapath. nil keeps every probe disabled (single-branch hot-path
	// cost) and registers nothing.
	Obs *obs.Observer
}

// DefaultConfig returns the paper's nominal system: a 100 MHz accelerator,
// 4 lanes, 4 scratchpad banks, both DMA optimizations on, a 16 KB 4-way
// cache with 16 MSHRs, and a 32-bit 100 MHz system bus.
func DefaultConfig() Config {
	return Config{
		Mem:            DMA,
		Lanes:          4,
		AccelHz:        100e6,
		Partitions:     4,
		SpadPorts:      1,
		PipelinedDMA:   true,
		DMATriggered:   true,
		CacheKB:        16,
		CacheLineBytes: 32,
		CachePorts:     1,
		CacheAssoc:     4,
		MSHRs:          16,
		Prefetch:       true,
		BusWidthBits:   32,
		BusHz:          100e6,
		DRAM:           dram.DefaultConfig(),
		CPU:            cpu.DefaultConfig(),
	}
}

func (c Config) cacheConfig(clock sim.Clock) cache.Config {
	return cache.Config{
		SizeBytes:      uint64(c.CacheKB) * 1024,
		LineBytes:      uint32(c.CacheLineBytes),
		Assoc:          c.CacheAssoc,
		Ports:          c.CachePorts,
		MSHRs:          c.MSHRs,
		Clock:          clock,
		HitCycles:      1,
		Prefetch:       c.Prefetch,
		PrefetchDegree: 4,
		SnoopLat:       40 * sim.Nanosecond,
	}
}

// Breakdown is the paper's four-way runtime decomposition (Sec IV-C):
// flush with no DMA or compute; DMA without compute (flush may overlap);
// compute overlapped with data movement; compute alone. Idle covers
// engine setup gaps not attributable to any activity.
type Breakdown struct {
	FlushOnly   sim.Tick
	DMAFlush    sim.Tick
	ComputeDMA  sim.Tick
	ComputeOnly sim.Tick
	Idle        sim.Tick
}

// Total sums all components.
func (b Breakdown) Total() sim.Tick {
	return b.FlushOnly + b.DMAFlush + b.ComputeDMA + b.ComputeOnly + b.Idle
}

// RunResult is the outcome of one end-to-end invocation.
type RunResult struct {
	Config  Config
	Runtime sim.Tick
	Cycles  uint64 // accelerator cycles covering Runtime

	Breakdown Breakdown

	// Energy is the accelerator-only breakdown (datapath + local
	// memories), the quantity the paper's power/EDP plots use.
	Energy    power.Breakdown
	AvgPowerW float64
	EDPJs     float64 // joule-seconds, accelerator energy x runtime
	// TransferJ is the system-side data movement energy (bus + DRAM),
	// reported separately from accelerator power as in the paper.
	TransferJ float64
	// AreaMM2 is the accelerator's silicon area (lanes + local memories),
	// the "wasted hardware" axis of over-provisioned designs.
	AreaMM2 float64

	// Schedule holds per-node issue/complete/lane records when
	// Config.RecordSchedule was set.
	Schedule []core.ScheduleEntry

	Datapath core.Stats
	Spad     spad.Stats
	Cache    cache.Stats
	TLB      tlb.Stats
	Bus      bus.Stats
	DRAM     dram.Stats
	DMA      dma.Stats

	// Faults aggregates injector activity; zero-valued when fault
	// injection was disabled.
	Faults fault.Stats
	// FaultLog is the deterministic injected-fault log (same seed, same
	// config, same workload => identical log).
	FaultLog []fault.Record
}

// Seconds returns the runtime in seconds.
func (r *RunResult) Seconds() float64 { return float64(r.Runtime) / 1e12 }

// ErrAborted marks a run terminated by the robustness layer — the watchdog,
// the MOESI sanitizer, or fault-injection retry exhaustion — rather than by
// normal completion. Sweeps test errors.Is(err, ErrAborted) to skip a
// poisoned design point and continue.
var ErrAborted = errors.New("aborted")

// fabric is the shared part of the SoC: bus, DRAM, coherence, host CPU.
type fabric struct {
	eng     *sim.Engine
	dram    *dram.DRAM
	bus     bus.Fabric
	host    *cpu.CPU
	coh     *coherence.Controller
	cpuPeer int
	gen     *cpu.TrafficGen
	inj     *fault.Injector
	san     *sanitize.Checker

	// dpScratch, when non-nil, recycles the datapath's scheduler buffers
	// across design points (set by Runner; single-instance fabrics only).
	dpScratch *core.Scratch
}

func newFabric(cfg Config) *fabric {
	return newFabricOn(sim.NewEngine(), coherence.NewController(), cfg)
}

// newFabricOn assembles the fabric on a caller-provided engine and coherence
// controller, both assumed freshly created or Reset. Runner recycles its pair
// across design points through this path.
func newFabricOn(eng *sim.Engine, coh *coherence.Controller, cfg Config) *fabric {
	f := &fabric{eng: eng, coh: coh}
	f.inj = fault.New(cfg.Faults)
	f.dram = dram.New(eng, cfg.DRAM)
	f.dram.SetFaults(f.inj)
	f.bus = newInterconnect(eng, cfg, f.dram)
	f.bus.SetFaults(f.inj)
	f.host = cpu.New(eng, cfg.CPU)
	f.cpuPeer = f.coh.AddPeer()
	if cfg.Sanitize {
		f.san = sanitize.Attach(f.coh)
		f.san.OnViolation = func(v *sanitize.Violation) { eng.Abort(v) }
	}
	eng.AddWatch(sim.Watch{Name: "bus", InFlight: f.bus.InFlight, Dump: f.bus.DumpInFlight})
	eng.AddWatch(sim.Watch{Name: "dram", InFlight: f.dram.InFlight, Dump: f.dram.DumpInFlight})
	if cfg.Traffic != nil {
		f.gen = cpu.NewTrafficGen(eng, f.bus, cfg.Traffic.Period, cfg.Traffic.Bytes)
		f.gen.Start()
	}
	f.observe(cfg.Obs)
	return f
}

// stopTraffic stops the background traffic generator, if any, once an
// invocation is observed: the generator reschedules itself until stopped,
// so the event queue could not drain otherwise.
func (f *fabric) stopTraffic() {
	if f.gen != nil {
		f.gen.Stop()
	}
}

// run drives the engine to completion under the watchdog and surfaces any
// abort — watchdog stall, tick-budget overrun, sanitizer violation, DMA
// retry exhaustion — as an ErrAborted-wrapped error rather than a panic or
// a hang, so sweeps can skip the poisoned point.
func (f *fabric) run(cfg Config) error {
	_, err := f.eng.RunGuarded(cfg.WatchdogTicks)
	if err == nil && f.san != nil {
		err = f.san.CheckFinal()
	}
	if err != nil {
		return fmt.Errorf("soc: run %w: %w", ErrAborted, err)
	}
	return nil
}

// observe registers fabric-wide counters and, when tracing, the shared
// interconnect and memory-controller probes.
func (f *fabric) observe(o *obs.Observer) {
	if o == nil {
		return
	}
	reg := o.Registry
	f.eng.RegisterStats(reg, o.Path("sim"))
	f.bus.RegisterStats(reg, o.Path("soc.bus"))
	f.dram.RegisterStats(reg, o.Path("soc.dram"))
	f.host.RegisterStats(reg, o.Path("soc.cpu"))
	if f.gen != nil {
		f.gen.RegisterStats(reg, o.Path("soc.cpu.traffic"))
	}
	if f.inj != nil {
		f.inj.RegisterStats(reg, o.Path("soc.faults"))
	}
	if f.san != nil {
		f.san.RegisterStats(reg, o.Path("soc.sanitize"))
	}
	if o.Observing() {
		busProbe := &obs.Probe{}
		f.bus.AttachProbe(busProbe)
		dramProbe := &obs.Probe{}
		f.dram.AttachProbe(dramProbe)
		if o.Tracing() {
			o.Tracer.Subscribe(busProbe, o.Path("bus"))
			o.Tracer.SubscribeFunc(dramProbe, func(ev obs.Event) string {
				return o.Path(fmt.Sprintf("dram.bank%d", ev.Lane))
			})
			if f.inj != nil {
				faultProbe := &obs.Probe{}
				f.inj.AttachProbe(faultProbe)
				o.Tracer.Subscribe(faultProbe, o.Path("faults"))
			}
		}
		if o.Profiling() {
			busProbe.Listen(o.Profile.Listener(obs.BucketBus))
			dramProbe.Listen(o.Profile.Listener(obs.BucketDRAM))
		}
	}
}

// instance is one accelerator attached to the fabric.
type instance struct {
	f       *fabric
	cfg     Config
	k       *Compiled
	g       *ddg.Graph // k.Graph(), kept unwrapped for the hot paths
	addrOff uint64     // physical window for this accelerator's arrays

	sp     *spad.Spad
	cch    *cache.Cache
	tb     *tlb.TLB
	engDMA *dma.Engine
	mem    core.MemModel
	dpCfg  core.Config
	dp     *core.Datapath
	// dpProbe persists across rounds: newRound re-attaches it to the
	// fresh datapath.
	dpProbe *obs.Probe

	dpResult *core.Result
	endTick  sim.Tick
	finished bool
}

// instanceWindow spaces accelerator physical windows far apart.
const instanceWindow = 1 << 28

// attach wires one accelerator into the fabric. idx selects its physical
// address window.
func (f *fabric) attach(k *Compiled, cfg Config, idx int) (*instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := k.Graph()
	inst := &instance{f: f, cfg: cfg, k: k, g: g, addrOff: uint64(idx) * instanceWindow}
	accelClock := sim.NewClockHz(cfg.AccelHz)
	arrays := g.Trace.Arrays
	inst.sp = spad.New(spad.Config{Partitions: cfg.Partitions, Ports: cfg.SpadPorts}, arrays)
	inst.sp.SetFaults(f.inj)
	dpCfg := core.Config{Lanes: cfg.Lanes, Clock: accelClock,
		Latencies: core.DefaultOpLatencies(), NoBarrier: cfg.NoWaveBarrier,
		RecordSchedule: cfg.RecordSchedule}

	inst.dpCfg = dpCfg
	switch cfg.Mem {
	case Ideal:
		inst.mem = core.IdealMem{}
	case Isolated:
		inst.mem = core.NewSpadMem(inst.sp)
	case DMA:
		dmaCfg := dma.DefaultConfig(accelClock)
		dmaCfg.Pipelined = cfg.PipelinedDMA
		dmaCfg.Interleave = cfg.DMATriggered && !cfg.NoDMAInterleave
		if cfg.DMAChunkBytes != 0 {
			dmaCfg.ChunkBytes = cfg.DMAChunkBytes
		}
		dmaCfg.HardwareCoherent = cfg.CoherentDMA
		inst.engDMA = dma.New(f.eng, dmaCfg, f.bus)
		inst.engDMA.SetFaults(f.inj)
		inst.engDMA.OnAbort = func(err error) { f.eng.Abort(err) }
		f.eng.AddWatch(sim.Watch{Name: fmt.Sprintf("accel%d.dma", idx),
			InFlight: inst.engDMA.InFlight, Dump: inst.engDMA.DumpInFlight})
		inst.mem = core.NewSpadMem(inst.sp)
	case Cache:
		accelPeer := f.coh.AddPeer()
		inst.cch = cache.New(f.eng, cfg.cacheConfig(accelClock), f.bus, f.coh, accelPeer)
		inst.cch.SetFaults(f.inj)
		f.eng.AddWatch(sim.Watch{Name: fmt.Sprintf("accel%d.cache", idx),
			InFlight: inst.cch.InFlight, Dump: inst.cch.DumpInFlight})
		inst.tb = tlb.NewWithOffset(tlb.DefaultConfig(), 1<<30+inst.addrOff)
		inst.mem = core.NewCacheMem(f.eng, inst.cch, inst.tb, inst.sp, g)
		inst.dirtyCPULines()
	default:
		return nil, fmt.Errorf("soc: unknown memory kind %v", cfg.Mem)
	}
	inst.observe(cfg.Obs, idx)
	inst.newRound()
	return inst, nil
}

// observe registers this accelerator's counters and probes. Accelerator 0
// (the common single-accelerator case) uses bare soc.accel paths and track
// names; later instances nest under accelN.
func (inst *instance) observe(o *obs.Observer, idx int) {
	if o == nil {
		return
	}
	base := o.Sub("soc.accel")
	tpfx := ""
	if idx > 0 {
		base = o.Sub(fmt.Sprintf("soc.accel%d", idx))
		tpfx = fmt.Sprintf("accel%d.", idx)
	}
	reg := base.Registry

	// The datapath is rebuilt every invocation (newRound), so counters
	// read through a closure that follows the current instance and, once
	// finished, the (possibly round-accumulated) result.
	core.RegisterStats(reg, base.Path("datapath"), func() core.Stats {
		if inst.dpResult != nil {
			return inst.dpResult.Stats
		}
		return inst.dp.Snapshot()
	})
	inst.sp.RegisterStats(reg, base.Path("spad"))
	if inst.cch != nil {
		inst.cch.RegisterStats(reg, base.Path("cache"))
	}
	if inst.tb != nil {
		inst.tb.RegisterStats(reg, base.Path("tlb"))
	}
	if inst.engDMA != nil {
		inst.engDMA.RegisterStats(reg, base.Path("dma"))
		if idx == 0 {
			// The flush/invalidate work is performed by the host CPU's
			// cache on the accelerator's behalf; alias it under the CPU
			// cache path so DMA-mode dumps still carry cache activity.
			reg.CounterFunc(o.Path("soc.cpu.cache.lines_flushed"),
				"CPU cache lines flushed for accelerator DMA",
				func() uint64 { return inst.engDMA.Stats().LinesFlushed })
			reg.CounterFunc(o.Path("soc.cpu.cache.lines_invalidated"),
				"CPU cache lines invalidated for accelerator DMA",
				func() uint64 { return inst.engDMA.Stats().LinesInvalidated })
		}
	}

	if !o.Observing() {
		return
	}
	inst.dpProbe = &obs.Probe{}
	if o.Tracing() {
		// Coalesce the per-node retire stream into per-lane busy windows;
		// gaps of more than eight accelerator cycles stay visible as stalls.
		gap := uint64(inst.dpCfg.Clock.Cycles(8))
		o.Tracer.MergeLanes(inst.dpProbe, o.Path(tpfx+"datapath.lane%d"), "busy", gap)
	}
	if o.Profiling() {
		inst.dpProbe.Listen(o.Profile.Listener(obs.BucketCompute))
	}
	if inst.engDMA != nil {
		transfer, flush := &obs.Probe{}, &obs.Probe{}
		inst.engDMA.AttachProbe(transfer, flush)
		if o.Tracing() {
			o.Tracer.Subscribe(transfer, o.Path(tpfx+"dma"))
			o.Tracer.Subscribe(flush, o.Path(tpfx+"cpu.flush"))
		}
		if o.Profiling() {
			transfer.Listen(o.Profile.Listener(obs.BucketDMA))
			flush.Listen(o.Profile.Listener(obs.BucketFlush))
		}
	}
	if inst.cch != nil {
		cacheProbe := &obs.Probe{}
		inst.cch.AttachProbe(cacheProbe)
		if o.Tracing() {
			o.Tracer.Subscribe(cacheProbe, o.Path(tpfx+"cache"))
		}
		if o.Profiling() {
			// Fill spans cover MSHR allocation to line install: miss
			// service (and MSHR-stall) time. Writeback instants carry no
			// duration and fall out of attribution.
			cacheProbe.Listen(o.Profile.Listener(obs.BucketCacheMiss))
		}
	}
}

// dirtyCPULines marks every shared line Modified in the host CPU's cache:
// the host program produced the inputs and initialized the output buffers,
// so the accelerator pulls them through coherence. Called before each
// invocation unless the inputs are being reused untouched. The non-Local
// array spans come precomputed from the artifact.
func (inst *instance) dirtyCPULines() {
	cm, ok := inst.mem.(*core.CacheMem)
	if !ok {
		return
	}
	line := uint64(inst.cfg.CacheLineBytes)
	for _, sp := range inst.k.shared {
		base := cm.Translate(sp.base)
		for off := uint64(0); off < sp.bytes; off += line {
			inst.f.coh.Write(inst.f.cpuPeer, (base+off)&^(line-1))
		}
	}
}

// newRound builds a fresh datapath over the shared memory structures: the
// scheduler state is per invocation, the cache/TLB/scratchpad contents
// persist across rounds. Later rounds of one instance rewind the existing
// scheduler in place; the first round draws from the fabric's scratch when a
// Runner provided one.
func (inst *instance) newRound() {
	switch {
	case inst.dp != nil:
		inst.dp.Reset()
	case inst.f.dpScratch != nil:
		inst.dp = inst.f.dpScratch.Build(inst.f.eng, inst.k.prog, inst.dpCfg, inst.mem)
	default:
		inst.dp = core.NewDatapathOver(inst.f.eng, inst.k.prog, inst.dpCfg, inst.mem)
	}
	if inst.dpProbe != nil {
		inst.dp.AttachProbe(inst.dpProbe)
	}
	if inst.cch != nil {
		// The mfence before signaling waits for outstanding fills; if a
		// prefetch is the last access in flight, the cache's idle hook
		// re-checks the drain condition.
		inst.cch.OnIdle = inst.dp.Wake
	}
	inst.finished = false
	inst.dpResult = nil
}

// transfers returns the DMA descriptor list for the instance's arrays. The
// single-accelerator case (window 0) shares the artifact's manifest directly
// — the DMA engine only reads Transfer fields, so concurrent runs over one
// artifact are safe; later windows take an offset copy.
func (inst *instance) transfers() []dma.Transfer {
	if inst.addrOff == 0 {
		return inst.k.manifest
	}
	out := make([]dma.Transfer, len(inst.k.manifest))
	copy(out, inst.k.manifest)
	for i := range out {
		out[i].Base += inst.addrOff
	}
	return out
}

// launch begins the invocation; onDone fires when the host CPU observes
// completion.
func (inst *instance) launch(onDone func()) {
	finish := func() {
		inst.finished = true
		inst.endTick = inst.f.eng.Now()
		onDone()
	}
	switch inst.cfg.Mem {
	case Ideal, Isolated, Cache:
		inst.f.host.Invoke(func(signal func()) {
			inst.dp.Start(func(r *core.Result) { inst.dpResult = r; signal() })
		}, finish)
	case DMA:
		ts := inst.transfers()
		storeThenSignal := func(signal func()) func(*core.Result) {
			return func(r *core.Result) {
				inst.dpResult = r
				inst.engDMA.StorePhase(ts, signal)
			}
		}
		inst.f.host.Invoke(func(signal func()) {
			if inst.cfg.DMATriggered {
				gran := uint32(32)
				if inst.cfg.ReadyBitBytes != 0 {
					gran = inst.cfg.ReadyBitBytes
				}
				arrays := inst.g.Trace.Arrays
				inst.sp.EnableReadyBits(gran, arrays)
				inst.engDMA.OnArrive = func(arr int16, off, n uint32) {
					inst.sp.MarkArrived(arr, off, n)
					inst.dp.Wake()
				}
				// Compute starts immediately; loads gate on ready bits.
				inst.engDMA.LoadPhase(ts, func() {
					inst.sp.MarkAllArrived(arrays)
					inst.dp.Wake()
				})
				inst.dp.Start(storeThenSignal(signal))
			} else {
				inst.engDMA.LoadPhase(ts, func() {
					inst.dp.Start(storeThenSignal(signal))
				})
			}
		}, finish)
	}
}

// collect assembles the RunResult after the simulation drains. busStats
// and dramStats are fabric-wide; in multi-accelerator runs they include
// every agent's traffic.
func (inst *instance) collect(pm *power.Model) (*RunResult, error) {
	if !inst.finished || inst.dpResult == nil {
		return nil, fmt.Errorf("soc: simulation did not complete (deadlock?)")
	}
	res := &RunResult{Config: inst.cfg}
	res.Runtime = inst.endTick
	res.Cycles = sim.NewClockHz(inst.cfg.AccelHz).CyclesCeil(inst.endTick)
	res.Datapath = inst.dpResult.Stats
	res.Schedule = inst.dpResult.Schedule
	res.Spad = inst.sp.Stats()
	if inst.cch != nil {
		res.Cache = inst.cch.Stats()
	}
	if inst.tb != nil {
		res.TLB = inst.tb.Stats()
	}
	res.Bus = inst.f.bus.Stats()
	res.DRAM = inst.f.dram.Stats()
	res.Faults = inst.f.inj.Stats()
	res.FaultLog = inst.f.inj.Log()

	var flushIvals, dmaIvals []obs.Interval
	if inst.engDMA != nil {
		flushIvals = inst.engDMA.FlushIntervals()
		dmaIvals = inst.engDMA.DMAIntervals()
		res.DMA = inst.engDMA.Stats()
	}
	res.Breakdown = decompose(res.Runtime, flushIvals, dmaIvals, inst.dpResult.ComputeIntervals)
	res.Energy, res.TransferJ = computeEnergy(pm, inst.cfg, res, inst.g, inst.sp, inst.dpResult)
	res.AreaMM2 = computeArea(pm, inst.cfg, inst.g, inst.sp)
	res.AvgPowerW = res.Energy.AvgPowerW(res.Seconds())
	res.EDPJs = power.EDP(res.Energy.Total(), res.Seconds())
	return res, nil
}

// Runner evaluates design points one at a time while recycling the heavy
// simulation state between them: the event queue's heap and ring, the
// coherence directory's slot table, and the datapath scheduler's dependence
// counters, lane state, and completion ring. Results are bit-identical to
// soc.Run — a reset engine restarts tick and sequence numbering from zero,
// so event ordering cannot differ — but a sweep worker that owns a Runner
// stops paying the per-point warm-up allocations that dominate fabric
// construction. A Runner is single-threaded: each concurrent worker owns
// its own. The zero value is ready to use.
//
// Reuse contract: each Run invalidates nothing from previous calls — every
// RunResult (stats, schedule, intervals, fault log) owns its memory — but
// the Runner must not be shared between goroutines, and a Run must finish
// before the next begins.
type Runner struct {
	eng       *sim.Engine
	coh       *coherence.Controller
	dpScratch core.Scratch
}

// Run executes one invocation of the compiled kernel k under cfg, recycling
// the runner's state. The artifact is read-only here: any number of Runners
// (one per goroutine) may share one Compiled.
func (r *Runner) Run(k *Compiled, cfg Config) (*RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r.eng == nil {
		r.eng = sim.NewEngine()
		r.coh = coherence.NewController()
	} else {
		r.eng.Reset()
		r.coh.Reset()
	}
	f := newFabricOn(r.eng, r.coh, cfg)
	f.dpScratch = &r.dpScratch
	inst, err := f.attach(k, cfg, 0)
	if err != nil {
		return nil, err
	}
	inst.launch(f.stopTraffic)
	if err := f.run(cfg); err != nil {
		return nil, err
	}
	pm := cfg.Power
	if pm == nil {
		pm = power.Default()
	}
	return inst.collect(pm)
}

// ProfileRun executes one invocation with the cycle-attribution profiler
// subscribed to every component probe (datapath lanes, DMA, CPU flush,
// cache misses, bus, DRAM) and returns the run result together with the
// attribution of every simulated tick in [0, Runtime) to exactly one
// bucket. cfg.Obs is replaced by a run-private observer: attribution
// needs its own probe wiring, and stat registration paths may not repeat
// within a shared registry. The attribution's bucket ticks sum to
// res.Runtime bit-exactly (the MachSuite regression gate asserts this for
// every kernel). Profiled sweeps get the same state recycling as plain
// Run — only the observer is per-invocation.
func (r *Runner) ProfileRun(k *Compiled, cfg Config) (*RunResult, obs.Attribution, error) {
	prof := obs.NewProfile()
	cfg.Obs = &obs.Observer{Registry: obs.NewRegistry(), Profile: prof}
	res, err := r.Run(k, cfg)
	if err != nil {
		return nil, obs.Attribution{}, err
	}
	return res, prof.Attribute(uint64(res.Runtime)), nil
}

// Run executes one invocation of the compiled kernel k under cfg. It is a
// one-shot Runner; sweeps evaluating many points should hold a Runner per
// worker instead.
func Run(k *Compiled, cfg Config) (*RunResult, error) {
	var r Runner
	return r.Run(k, cfg)
}

// RunGraph compiles g and executes one invocation under cfg — the
// pre-artifact path. Callers evaluating more than one design point should
// Compile once and pass the artifact to Run.
func RunGraph(g *ddg.Graph, cfg Config) (*RunResult, error) {
	return Run(Compile(g), cfg)
}

// ProfileRun is the one-shot form of Runner.ProfileRun.
func ProfileRun(k *Compiled, cfg Config) (*RunResult, obs.Attribution, error) {
	var r Runner
	return r.ProfileRun(k, cfg)
}

// MultiResult is the outcome of a multi-accelerator run.
type MultiResult struct {
	// Results holds each accelerator's view, in attach order. Bus and
	// DRAM statistics are fabric-wide.
	Results []*RunResult
	// Makespan is when the last accelerator's completion was observed.
	Makespan sim.Tick
}

// RunMulti simulates several accelerators launched simultaneously on one
// shared bus, DRAM, and coherence fabric — the ACCEL0/ACCEL1 arrangement
// of the paper's Fig 3 SoC. System-level parameters (bus, DRAM, host CPU,
// background traffic) come from the first config.
func RunMulti(ks []*Compiled, cfgs []Config) (*MultiResult, error) {
	if len(ks) == 0 || len(ks) != len(cfgs) {
		return nil, fmt.Errorf("soc: RunMulti needs matching kernels and configs, got %d/%d",
			len(ks), len(cfgs))
	}
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("soc: accelerator %d: %w", i, err)
		}
	}
	f := newFabric(cfgs[0])
	insts := make([]*instance, len(ks))
	for i := range ks {
		inst, err := f.attach(ks[i], cfgs[i], i)
		if err != nil {
			return nil, fmt.Errorf("soc: accelerator %d: %w", i, err)
		}
		insts[i] = inst
	}
	remaining := len(insts)
	for _, inst := range insts {
		inst.launch(func() {
			remaining--
			if remaining == 0 && f.gen != nil {
				f.gen.Stop()
			}
		})
	}
	if err := f.run(cfgs[0]); err != nil {
		return nil, err
	}

	out := &MultiResult{}
	for i, inst := range insts {
		pm := cfgs[i].Power
		if pm == nil {
			pm = power.Default()
		}
		r, err := inst.collect(pm)
		if err != nil {
			return nil, fmt.Errorf("soc: accelerator %d: %w", i, err)
		}
		out.Results = append(out.Results, r)
		if r.Runtime > out.Makespan {
			out.Makespan = r.Runtime
		}
	}
	return out, nil
}

// RepeatResult is the outcome of RunRepeated.
type RepeatResult struct {
	// Rounds holds each invocation's latency, in order.
	Rounds []sim.Tick
	// Total is the end-to-end time of all invocations.
	Total sim.Tick
	// Final carries cumulative statistics; its Runtime is Total.
	Final *RunResult
}

// SteadyState returns the last round's latency: the warmed-up cost of an
// invocation once caches and TLBs hold whatever survives between calls.
func (r *RepeatResult) SteadyState() sim.Tick { return r.Rounds[len(r.Rounds)-1] }

// RunRepeated invokes the accelerator `invocations` times back to back.
// Cache and TLB contents persist between rounds. With reuseInputs=false
// (the realistic default) the host rewrites the inputs before every call,
// re-dirtying its cache lines and invalidating the accelerator's copies;
// with reuseInputs=true the inputs stay resident (weights, coefficient
// tables), which is where a cache interface amortizes its cold misses
// while DMA pays the full transfer every time.
func RunRepeated(k *Compiled, cfg Config, invocations int, reuseInputs bool) (*RepeatResult, error) {
	if invocations <= 0 {
		return nil, fmt.Errorf("soc: non-positive invocation count %d", invocations)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := newFabric(cfg)
	inst, err := f.attach(k, cfg, 0)
	if err != nil {
		return nil, err
	}
	out := &RepeatResult{}
	var accum core.Stats
	var allIntervals []obs.Interval

	roundStart := sim.Tick(0)
	for round := 0; round < invocations; round++ {
		if round > 0 {
			inst.newRound()
			if !reuseInputs {
				inst.dirtyCPULines()
			}
			if f.gen != nil {
				f.gen.Start()
			}
		}
		inst.launch(f.stopTraffic)
		if err := f.run(cfg); err != nil {
			return nil, fmt.Errorf("soc: round %d: %w", round, err)
		}
		if !inst.finished || inst.dpResult == nil {
			return nil, fmt.Errorf("soc: round %d did not complete", round)
		}
		out.Rounds = append(out.Rounds, inst.endTick-roundStart)
		roundStart = inst.endTick
		for k := range accum.OpsIssued {
			accum.OpsIssued[k] += inst.dpResult.Stats.OpsIssued[k]
		}
		accum.Cycles += inst.dpResult.Stats.Cycles
		accum.ActiveCycles += inst.dpResult.Stats.ActiveCycles
		accum.MemStalls += inst.dpResult.Stats.MemStalls
		accum.DepStalls += inst.dpResult.Stats.DepStalls
		accum.BarrierStalls += inst.dpResult.Stats.BarrierStalls
		allIntervals = append(allIntervals, inst.dpResult.ComputeIntervals...)
	}

	// Cumulative result over the whole sequence.
	inst.dpResult.Stats = accum
	inst.dpResult.ComputeIntervals = obs.Merge(allIntervals)
	pm := cfg.Power
	if pm == nil {
		pm = power.Default()
	}
	final, err := inst.collect(pm)
	if err != nil {
		return nil, err
	}
	out.Final = final
	out.Total = final.Runtime
	return out, nil
}

// decompose applies the paper's interval algebra to the activity windows:
// one Partition over compute overlapped with data movement, the rest of
// compute, DMA, then flush. It is not clipped to total, so a compute
// window that outlasts the run still counts and Idle takes what is left.
// comp must be merged.
func decompose(total sim.Tick, flush, dmaIv, comp []obs.Interval) Breakdown {
	t := obs.Partition(math.MaxUint64, obs.Intersect(comp, obs.Merge(flush, dmaIv)), comp, dmaIv, flush)
	b := Breakdown{ComputeDMA: sim.Tick(t[0]), ComputeOnly: sim.Tick(t[1]),
		DMAFlush: sim.Tick(t[2]), FlushOnly: sim.Tick(t[3])}
	if covered := b.Total(); total > covered {
		b.Idle = total - covered
	}
	return b
}

// computeEnergy assembles the accelerator energy breakdown for the run and
// the separately-reported system transfer energy.
func computeEnergy(pm *power.Model, cfg Config, res *RunResult, g *ddg.Graph,
	sp *spad.Spad, dp *core.Result) (power.Breakdown, float64) {

	seconds := res.Seconds()
	var bd power.Breakdown

	// Functional units: dynamic per issued op, leakage for the lanes over
	// the whole invocation (the datapath leaks while waiting on data).
	for k := 0; k < trace.NumKinds; k++ {
		bd.FUDynamic += float64(dp.Stats.OpsIssued[k]) * pm.OpEnergyJ(trace.OpKind(k))
	}
	bd.FULeak = pm.LaneLeakW(cfg.Lanes) * seconds

	// Local memories.
	arrays := g.Trace.Arrays
	switch cfg.Mem {
	case Isolated, DMA:
		bd.Add(sp.Energy(pm, arrays, seconds))
	case Cache:
		var locals []*trace.Array
		for _, a := range arrays {
			if a.Dir == trace.Local {
				locals = append(locals, a)
			}
		}
		if len(locals) > 0 {
			bd.Add(sp.Energy(pm, locals, seconds))
		}
		size := uint64(cfg.CacheKB) * 1024
		bd.MemDynamic += float64(res.Cache.Accesses) *
			pm.CacheAccessJ(size, cfg.CachePorts, cfg.CacheAssoc)
		bd.MemLeak += pm.CacheLeakW(size, cfg.CachePorts) * seconds
	}

	// Data movement energy (bus + DRAM), reported alongside but not
	// inside the accelerator's power envelope.
	var transfer float64
	switch cfg.Mem {
	case DMA:
		moved := res.DMA.BytesMoved
		transfer = pm.BusJ(moved) + pm.DRAMJ(moved)
	case Cache:
		lineBytes := uint64(cfg.CacheLineBytes)
		c2c := res.Cache.C2CFills
		mem := res.Cache.MemFills + res.Cache.Writebacks
		transfer = pm.BusJ((c2c+mem)*lineBytes) + pm.DRAMJ(mem*lineBytes)
	}
	return bd, transfer
}

// computeArea sums the accelerator's silicon: datapath lanes plus either
// scratchpad banks sized to hold every array or the cache plus
// Local-array scratchpads.
func computeArea(pm *power.Model, cfg Config, g *ddg.Graph, sp *spad.Spad) float64 {
	area := pm.LaneAreaTotalMM2(cfg.Lanes)
	arrays := g.Trace.Arrays
	switch cfg.Mem {
	case Isolated, DMA, Ideal:
		for _, a := range arrays {
			area += pm.SRAMAreaMM2(sp.BankBytes(a), cfg.SpadPorts) * float64(cfg.Partitions)
		}
	case Cache:
		for _, a := range arrays {
			if a.Dir == trace.Local {
				area += pm.SRAMAreaMM2(sp.BankBytes(a), cfg.SpadPorts) * float64(cfg.Partitions)
			}
		}
		area += pm.CacheAreaMM2(uint64(cfg.CacheKB)*1024, cfg.CachePorts)
	}
	return area
}

// RunTrace is a convenience wrapper building the DDDG and compiling it
// first. Prefer Build + Compile + Run when sweeping many configs over one
// kernel.
func RunTrace(tr *trace.Trace, cfg Config) (*RunResult, error) {
	return RunGraph(ddg.Build(tr), cfg)
}
