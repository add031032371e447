// Package cpu models the host-CPU side of an accelerator invocation
// (Sec III-E of the paper): the ioctl-style kick-off, the spin-wait on a
// coherence-visible completion flag, and — for shared-resource contention
// studies — other bus agents competing with the accelerator.
//
// The heavyweight CPU work around DMA (cache-line flushes and invalidates)
// is characterized analytically inside the DMA engine, matching how
// gem5-Aladdin folds driver behavior measured on real hardware into its
// models.
package cpu

import (
	"gem5aladdin/internal/mem/bus"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
)

// Config describes invocation timing.
type Config struct {
	Clock sim.Clock
	// InvokeLatency is the ioctl/driver path from the user program to the
	// accelerator starting (device file descriptor dispatch, command
	// decode).
	InvokeLatency sim.Tick
	// PollCycles is the spin-wait loop length: the CPU observes the
	// accelerator's completion-flag update at the next poll boundary.
	PollCycles uint64
}

// DefaultConfig returns a 667 MHz Cortex-A9-class host.
func DefaultConfig() Config {
	return Config{
		Clock:         sim.NewClockHz(667e6),
		InvokeLatency: 0,
		PollCycles:    20,
	}
}

// CPU is the host driver.
type CPU struct {
	cfg         Config
	eng         *sim.Engine
	invocations uint64
}

// New builds a CPU model.
func New(eng *sim.Engine, cfg Config) *CPU {
	if cfg.Clock.Period == 0 {
		panic("cpu: zero clock period")
	}
	return &CPU{cfg: cfg, eng: eng}
}

// Invocations reports how many accelerator calls the driver has issued.
func (c *CPU) Invocations() uint64 { return c.invocations }

// RegisterStats registers the host-driver counters under prefix.
func (c *CPU) RegisterStats(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+".invocations", "accelerator calls issued", c.Invocations)
}

// Invoke runs one accelerator call: after the ioctl latency it calls start,
// passing a completion function the accelerator signals when finished
// (the shared-pointer write after its mfence). observed fires when the
// spin-waiting CPU notices the flag, which is the end-to-end latency a
// caller measures.
func (c *CPU) Invoke(start func(signal func()), observed func()) {
	c.invocations++
	c.eng.After(c.cfg.InvokeLatency, func() {
		start(func() {
			delay := c.pollDelay()
			c.eng.After(delay, observed)
		})
	})
}

// pollDelay returns the time until the next spin-wait poll boundary.
func (c *CPU) pollDelay() sim.Tick {
	period := c.cfg.Clock.Cycles(c.cfg.PollCycles)
	if period == 0 {
		return 0
	}
	now := c.eng.Now()
	if r := now % period; r != 0 {
		return period - r
	}
	return 0
}

// TrafficGen is a background bus master standing in for the other agents
// of a loaded SoC (Sec IV-A, "shared resource contention"). It issues a
// fixed-size transaction every Period ticks.
type TrafficGen struct {
	eng    *sim.Engine
	bus    bus.Fabric
	master int

	Period sim.Tick
	Bytes  uint32
	Write  bool

	addr    uint64
	stopped bool
	issued  uint64
	stepEv  *sim.Event // recurring injection callback, bound once
	doneFn  func()     // no-op completion shared by every injected access
}

// NewTrafficGen registers a background master on b.
func NewTrafficGen(eng *sim.Engine, b bus.Fabric, period sim.Tick, bytes uint32) *TrafficGen {
	if period == 0 || bytes == 0 {
		panic("cpu: invalid traffic generator parameters")
	}
	g := &TrafficGen{
		eng: eng, bus: b, master: b.RegisterMaster(),
		Period: period, Bytes: bytes,
		addr:   0x4000_0000, // away from accelerator data
		doneFn: func() {},
	}
	g.stepEv = sim.NewEvent(g.step)
	return g
}

// Start begins injecting traffic.
func (g *TrafficGen) Start() {
	g.stopped = false
	g.eng.AfterEvent(g.Period, g.stepEv)
}

// Stop halts injection after the current transaction.
func (g *TrafficGen) Stop() { g.stopped = true }

// Issued reports how many transactions the generator has injected.
func (g *TrafficGen) Issued() uint64 { return g.issued }

// RegisterStats registers the traffic-generator counters under prefix.
func (g *TrafficGen) RegisterStats(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+".transactions", "background transactions injected", g.Issued)
	reg.CounterFunc(prefix+".bytes_injected", "background bytes injected",
		func() uint64 { return g.issued * uint64(g.Bytes) })
}

func (g *TrafficGen) step() {
	if g.stopped {
		return
	}
	g.issued++
	g.addr += uint64(g.Bytes)
	g.bus.Submit(bus.Txn{Master: g.master, Addr: g.addr, Bytes: g.Bytes, Write: g.Write, Done: g.doneFn})
	g.eng.AfterEvent(g.Period, g.stepEv)
}
