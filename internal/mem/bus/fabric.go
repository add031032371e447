// Package bus models the SoC system interconnect. Three fabric kinds share
// one master-facing contract, Fabric: the split-transaction round-robin bus
// (the reference, whose timing the figures regression pins), an AXI-like
// burst crossbar, and a 2D mesh NoC. They run on two implementations: New
// builds the bus as a Crossbar with one slave port that never splits a
// transfer and drains read responses in completion order, and Mesh is the
// other. The DMA engines, caches and CPU traffic generators speak only
// Fabric; which kind they ride on is a design-space axis
// (soc.Config.Fabric), not a wiring decision.
package bus

import (
	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
)

// Target is a memory-side endpoint of the fabric (typically the DRAM
// controller). Access is called once routing hands it a transaction; done
// must be invoked when the data is ready (reads) or accepted (writes).
type Target interface {
	Access(addr uint64, bytes uint32, write bool, done func())
}

// Stats aggregates fabric activity.
type Stats struct {
	Transactions uint64
	BytesMoved   uint64
	// BusyTicks sums resource occupancy: the bus's data path, every
	// crossbar slave port, every mesh link. On the crossbar and mesh it can
	// exceed elapsed time when routes overlap.
	BusyTicks sim.Tick
	WaitTicks sim.Tick // total arbitration queuing delay across transactions
}

// Txn is one fabric transaction.
type Txn struct {
	Master int // id from RegisterMaster
	Addr   uint64
	Bytes  uint32
	// Gran and Progress make a read's delivery observable: Progress fires
	// with the cumulative bytes delivered, every Gran bytes, as the data
	// reaches the master. The DMA engine sets full/empty bits at CPU
	// cache-line granularity this way while a bulk transfer is still in
	// flight (DMA-triggered computation, Sec IV-B2).
	Gran  uint32
	Write bool
	// Target answers the transaction; nil means the fabric's memory-side
	// target. Snooping caches name a peer cache here (cache-to-cache
	// transfer), and a coherent DMA engine the CPU cache, while still paying
	// arbitration and occupancy.
	Target   Target
	Progress func(delivered uint32)
	// Done fires when the transaction completes: data returned for reads,
	// accepted for writes.
	Done func()
}

// Fabric is the interconnect as its masters see it.
//
// All backends share the split transaction model: Submit enqueues a
// transfer from a registered master; the fabric arbitrates its internal
// resources (a shared data path, per-slave crossbar ports, mesh links),
// hands the request to the Target when routing completes, and fires the
// transaction's callbacks. Downstream memory latency never holds fabric
// resources, so independent transfers from different masters can pipeline
// or (crossbar/mesh) genuinely overlap.
//
// Determinism contract: given the same engine, registration order, and
// request sequence, every backend must produce bit-identical timing. All
// state lives on the engine's single event loop; no backend may consult
// wall-clock time or map iteration order.
type Fabric interface {
	// RegisterMaster allocates an arbitration slot and returns its id.
	// Masters must be registered before the simulation starts so ids are
	// stable across runs.
	RegisterMaster() int

	// Submit enqueues t. A zero-byte transaction completes immediately.
	// Submit panics on an unknown master, and on Progress without a
	// nonzero Gran or on a write.
	Submit(t Txn)

	// Stats returns a copy of the accumulated counters.
	Stats() Stats

	// RegisterStats registers the fabric counters under prefix.
	RegisterStats(reg *obs.Registry, prefix string)

	// AttachProbe wires an observability probe; backends fire one span per
	// occupancy window (address phase, burst, link hop) with the master id
	// or resource lane attached.
	AttachProbe(p *obs.Probe)

	// SetFaults attaches a fault injector (nil disables injection).
	SetFaults(inj *fault.Injector)

	// InFlight counts transactions the fabric still holds (queued, routed,
	// awaiting data, or backing off); it feeds the no-progress watchdog.
	InFlight() int

	// DumpInFlight renders internal queue state for a watchdog diagnostic.
	DumpInFlight() string
}

var (
	_ Fabric = (*Crossbar)(nil)
	_ Fabric = (*Mesh)(nil)
)
