package soc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/sim"
)

// runResultGolden is the digest of every outcome TestRunResultGolden
// produces. It was computed before the datapath scheduled lanes from a
// ready worklist and took its cycles inline, and must never be edited: a
// mismatch means some simulated result moved.
const runResultGolden = "e67af8a14b5ac039c1cc54b2edc758028e6167b72858d412295a1179f694b785"

// value folds v into the digest field by field: numbers by their bits,
// strings and slices behind their length, pointers and interfaces behind a
// nil flag. A func or chan folds in only whether it is nil.
func (g goldenHash) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			g.word(1)
		} else {
			g.word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		g.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		g.word(v.Uint())
	case reflect.Float32, reflect.Float64:
		g.word(math.Float64bits(v.Float()))
	case reflect.String:
		g.word(uint64(v.Len()))
		g.h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		g.word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			g.value(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			g.value(v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			g.word(0)
			return
		}
		g.word(1)
		g.value(v.Elem())
	case reflect.Func, reflect.Chan:
		if v.IsNil() {
			g.word(0)
		} else {
			g.word(1)
		}
	default:
		panic("result golden: cannot fold a " + v.Kind().String())
	}
}

// outcome folds one run in: every field of its result, or, for a run that
// aborted, the abort kind and, for a stall, when it was caught, after how
// many events and with how many still queued. The stall's message is left
// out: it carries each component's in-flight dump.
func (g goldenHash) outcome(label string, res any, err error) (stalled bool) {
	g.h.Write([]byte(label))
	if err != nil {
		g.h.Write([]byte("abort:" + AbortKind(err)))
		if AbortKind(err) == "" {
			g.h.Write([]byte(err.Error()))
		}
		if st := StallOf(err); st != nil {
			g.word(uint64(st.Now))
			g.word(st.EventsFired)
			g.word(uint64(st.PendingEvents))
			return strings.Contains(st.Reason, "budget")
		}
		return false
	}
	g.value(reflect.ValueOf(res))
	return false
}

// repeatShape and multiShape lay an invocation's outcome out as the
// repeated and multi-accelerator results this digest was first taken over
// were laid out, so that it folds the same values in the same order: the
// round latencies, the total and the cumulative result; or the results and
// the makespan.
func repeatShape(out *InvocationResult) any {
	if out == nil {
		return nil
	}
	return &struct {
		Rounds []sim.Tick
		Total  sim.Tick
		Final  *RunResult
	}{out.Rounds, out.Makespan, out.Results[0]}
}

func multiShape(out *InvocationResult) any {
	if out == nil {
		return nil
	}
	return &struct {
		Results  []*RunResult
		Makespan sim.Tick
	}{out.Results, out.Makespan}
}

// resultVariant is one datapath/system setting TestRunResultGolden crosses
// with every kernel, memory system and fabric.
type resultVariant struct {
	name string
	set  func(*Config)
}

func resultVariants() []resultVariant {
	faults := fault.Config{Seed: 7, DRAMBitProb: 0.005, SpadBitProb: 0.001, CacheBitProb: 0.001,
		BusNackProb: 0.01, BusRetryLimit: 8, DoubleBitFrac: 0.1, BusBackoff: 10 * sim.Nanosecond}
	return []resultVariant{
		{"l1", func(c *Config) { c.Lanes = 1 }},
		{"l3-nobarrier", func(c *Config) { c.Lanes, c.NoWaveBarrier = 3, true }},
		{"l8-faults", func(c *Config) {
			c.Lanes, c.Faults, c.WatchdogTicks = 8, faults, 50*sim.Millisecond
		}},
		{"l16-budget", func(c *Config) { c.Lanes, c.WatchdogTicks = 16, 20*sim.Microsecond }},
		{"l32-traffic", func(c *Config) {
			c.Lanes, c.Traffic = 32, &TrafficConfig{Period: 200 * sim.Nanosecond, Bytes: 32}
		}},
		{"l5-schedule", func(c *Config) { c.Lanes, c.RecordSchedule = 5, true }},
	}
}

// TestRunResultGolden pins every field of every simulated result, bit for
// bit: datapath counters with per-lane ops, breakdown, energy, schedule,
// each block's stats and the fault log. Each MachSuite kernel runs on the
// ideal, isolated, DMA and cache memory systems over every fabric in six
// variants: one lane; three without the wave barrier; eight with seeded
// faults; sixteen under a 20 µs tick budget (195 points abort on it); 32
// beside background traffic; five recording its schedule. Every DMA design
// pipelines and triggers compute on arrival, as DefaultConfig does. Each
// kernel also runs three rounds on reused inputs, beside spmv-crs on the
// cache, and at 64, 65 and 130 lanes with and without the wave barrier, so
// the datapath's per-lane state spans several words.
func TestRunResultGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("1,748 runs; run without -short")
	}
	g := goldenHash{sha256.New()}
	var r Runner
	points, budgetStalls := 0, 0
	fold := func(label string, res any, err error) {
		if g.outcome(label, res, err) {
			budgetStalls++
		}
		points++
	}
	spmv := Compile(kernelGraph(t, "spmv-crs"))
	for _, name := range machsuite.Names() {
		k := Compile(kernelGraph(t, name))
		for _, mem := range []MemKind{Ideal, Isolated, DMA, Cache} {
			for _, kind := range FabricKinds() {
				for _, v := range resultVariants() {
					cfg := DefaultConfig()
					cfg.Mem, cfg.Fabric.Kind = mem, kind
					v.set(&cfg)
					res, err := r.Run(k, cfg)
					fold(fmt.Sprintf("%s/%v/%v/%s", name, mem, kind, v.name), res, err)
				}
			}
		}

		dmaCfg, cacheCfg := DefaultConfig(), DefaultConfig()
		cacheCfg.Mem = Cache
		rep, err := r.Invoke(Invocation{Kernels: []*Compiled{k}, Configs: []Config{dmaCfg},
			Rounds: 3, ReuseInputs: true})
		fold(name+"/repeated", repeatShape(rep), err)
		multi, err := r.Invoke(Invocation{Kernels: []*Compiled{k, spmv},
			Configs: []Config{dmaCfg, cacheCfg}, Rounds: 1})
		fold(name+"/multi", multiShape(multi), err)

		for _, mem := range []MemKind{Isolated, DMA, Cache} {
			for _, lanes := range []int{64, 65, 130} {
				for _, noBarrier := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.Mem, cfg.Lanes, cfg.NoWaveBarrier = mem, lanes, noBarrier
					res, err := r.Run(k, cfg)
					fold(fmt.Sprintf("%s/%v/l%d/nobarrier=%v", name, mem, lanes, noBarrier), res, err)
				}
			}
		}
	}
	if points != 1748 || budgetStalls != 195 {
		t.Fatalf("%d points with %d budget stalls, want 1748 with 195", points, budgetStalls)
	}
	if got := hex.EncodeToString(g.h.Sum(nil)); got != runResultGolden {
		t.Fatalf("run result digest %s, want %s", got, runResultGolden)
	}
}
