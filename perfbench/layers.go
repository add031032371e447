package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/soc"
)

// --- spans ---

// spanSink keeps every finished span, as the tracer's JSON lines, in
// memory until the run ends. The tracer serializes writes.
type spanSink struct{ buf bytes.Buffer }

func (s *spanSink) Write(p []byte) (int, error) { return s.buf.Write(p) }

// spanRec is one finished span as the tracer writes it.
type spanRec struct {
	Trace  string     `json:"trace"`
	Span   uint64     `json:"span"`
	Parent uint64     `json:"parent"`
	Name   string     `json:"name"`
	Start  time.Time  `json:"start"`
	DurUS  float64    `json:"dur_us"`
	Attrs  []obs.Attr `json:"attrs"`
}

func (r *spanRec) dur() time.Duration { return time.Duration(r.DurUS * 1e3) }
func (r *spanRec) end() time.Time     { return r.Start.Add(r.dur()) }
func (r *spanRec) ms() float64        { return r.DurUS / 1e3 }

// num returns a numeric attribute (JSON numbers decode as float64).
func (r *spanRec) num(key string) (float64, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			v, ok := a.Value.(float64)
			return v, ok
		}
	}
	return 0, false
}

func (r *spanRec) str(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			v, _ := a.Value.(string)
			return v
		}
	}
	return ""
}

func (r *spanRec) flag(key string) bool {
	for _, a := range r.Attrs {
		if a.Key == key {
			v, _ := a.Value.(bool)
			return v
		}
	}
	return false
}

// spanSet indexes the spans of a run.
type spanSet struct {
	all      []*spanRec
	byID     map[uint64]*spanRec
	children map[uint64][]*spanRec
}

func (s *spanSink) spans() (*spanSet, error) {
	set := &spanSet{byID: map[uint64]*spanRec{}, children: map[uint64][]*spanRec{}}
	sc := bufio.NewScanner(bytes.NewReader(s.buf.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		r := &spanRec{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("decoding span: %w", err)
		}
		set.all = append(set.all, r)
		set.byID[r.Span] = r
		if r.Parent != 0 {
			set.children[r.Parent] = append(set.children[r.Parent], r)
		}
	}
	return set, sc.Err()
}

func (s *spanSet) named(name string) []*spanRec {
	var out []*spanRec
	for _, r := range s.all {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// selfTime is r's duration minus the part of its interval that its child
// spans cover.
func (s *spanSet) selfTime(r *spanRec) time.Duration {
	kids := s.children[r.Span]
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.end()
		if a.Before(r.Start) {
			a = r.Start
		}
		if b.After(r.end()) {
			b = r.end()
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return r.dur() - covered
}

func msOf(rs []*spanRec) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.ms()
	}
	return out
}

// coreSpans accumulates per-point simulation spans by (memory, fabric)
// stratum and the simulated cycles they covered.
type coreSpans struct {
	ms     map[string][]float64
	ns     float64
	cycles float64
}

func newCoreSpans() *coreSpans { return &coreSpans{ms: map[string][]float64{}} }

// add records one simulated point's span; cycles come from its attribute.
func (c *coreSpans) add(mem soc.MemKind, fab soc.FabricKind, r *spanRec) {
	key := fmt.Sprintf("soc.run_ms.%s.%s", mem, fab)
	c.ms[key] = append(c.ms[key], r.ms())
	c.ns += r.DurUS * 1e3
	if cy, ok := r.num("cycles"); ok {
		c.cycles += cy
	}
}

func (c *coreSpans) report(o *outcome) {
	for key, ms := range c.ms {
		o.layers[key] = median(ms)
	}
	if c.cycles > 0 {
		o.layers["soc.host_ns_per_cycle"] = c.ns / c.cycles
	}
}

// --- simulated work ---

// simWork sums the deterministic statistics of a set of RunResults and
// digests every result's cycles and energy, in the order added. Under a
// host-only change every value must repeat exactly at one seed.
type simWork struct {
	n      int
	counts map[string]uint64
	buf    []byte
}

func newSimWork() *simWork { return &simWork{counts: map[string]uint64{}} }

func (w *simWork) add(r *soc.RunResult) {
	var ops uint64
	for _, n := range r.Datapath.OpsIssued {
		ops += n
	}
	c := w.counts
	w.n++
	c["sim.cycles"] += r.Cycles
	c["core.ops_issued"] += ops
	c["core.mem_stalls"] += r.Datapath.MemStalls
	c["spad.accesses"] += r.Spad.Reads + r.Spad.Writes
	c["spad.bank_conflicts"] += r.Spad.BankConflicts
	c["cache.accesses"] += r.Cache.Accesses
	c["cache.misses"] += r.Cache.Misses
	c["cache.mshr_stalls"] += r.Cache.MSHRStalls
	c["coherence.c2c_fills"] += r.Cache.C2CFills
	c["coherence.upgrades"] += r.Cache.Upgrades
	c["tlb.misses"] += r.TLB.Misses
	c["bus.transactions"] += r.Bus.Transactions
	c["bus.wait_ticks"] += uint64(r.Bus.WaitTicks)
	c["dram.accesses"] += r.DRAM.Reads + r.DRAM.Writes
	c["dram.row_hits"] += r.DRAM.RowHits
	c["dma.bytes"] += r.DMA.BytesMoved
	c["dma.lines_flushed"] += r.DMA.LinesFlushed

	w.buf = binary.BigEndian.AppendUint64(w.buf, r.Cycles)
	w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(r.Runtime))
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(r.Energy.Total()))
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(r.EDPJs))
}

// digest is the SHA-256 of every added result's cycles and energy.
func (w *simWork) digest() string {
	sum := sha256.Sum256(w.buf)
	return hex.EncodeToString(sum[:])
}

// report writes the counts, and the digest's first 48 bits as an exactly
// representable number, into the per-layer metrics.
func (w *simWork) report(o *outcome) {
	for k, v := range w.counts {
		o.layers[k] = float64(v)
	}
	o.layers["sim.points"] = float64(w.n)
	sum := sha256.Sum256(w.buf)
	o.layers["model.digest"] = float64(binary.BigEndian.Uint64(append([]byte{0, 0}, sum[:6]...)))
	o.notef("model digest %s over %d points", w.digest(), w.n)
}

// pointAllocs runs cfgs[i] over ks[i], in order, on one reused soc.Runner,
// as a sweep worker would, and reports heap allocations and bytes per point.
// The run is serial, so both repeat exactly for a fixed config list.
func pointAllocs(ks []*soc.Compiled, cfgs []soc.Config, o *outcome) error {
	var r soc.Runner
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, cfg := range cfgs {
		if _, err := r.Run(ks[i], cfg); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(cfgs))
	o.layers["soc.allocs_per_point"] = float64(after.Mallocs-before.Mallocs) / n
	o.layers["soc.alloc_bytes_per_point"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	return nil
}

// --- Go runtime ---

// runtimeWatch samples the Go heap while a run is measured, and counts the
// collections and their pauses.
type runtimeWatch struct {
	start    runtime.MemStats
	stopCh   chan struct{}
	wg       sync.WaitGroup
	peakHeap uint64
}

func watchRuntime() *runtimeWatch {
	w := &runtimeWatch{stopCh: make(chan struct{})}
	runtime.ReadMemStats(&w.start)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > w.peakHeap {
				w.peakHeap = v
			}
			select {
			case <-w.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the watch at the end of the measured window, and records the
// peak RSS so far and its per-layer values. Correctness checks come after
// and do not count.
func (w *runtimeWatch) stop(o *outcome) {
	o.e2e["peak_rss_mb"] = peakRSSMB()
	close(w.stopCh)
	w.wg.Wait()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	o.untracedLayers["go.gc_cycles"] = float64(end.NumGC - w.start.NumGC)
	o.untracedLayers["go.gc_pause_ms"] = float64(end.PauseTotalNs-w.start.PauseTotalNs) / 1e6
	o.untracedLayers["go.heap_peak_mb"] = float64(w.peakHeap) / (1 << 20)
}
