package soc

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gem5aladdin/internal/obs"
)

// observedRun simulates g under cfg with a fresh observer and returns the
// three dump artifacts.
func observedRun(t *testing.T, cfg Config) (text, jsonDump, trace []byte) {
	t.Helper()
	g := streamKernel(512)
	o := obs.New(true)
	cfg.Obs = o
	if _, err := Run(Compile(g), cfg); err != nil {
		t.Fatal(err)
	}
	var tb, jb, trb bytes.Buffer
	if err := o.Registry.DumpText(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.Registry.DumpJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := o.Tracer.WriteJSON(&trb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes(), trb.Bytes()
}

// Two identical observed runs must produce byte-identical stats dumps and
// trace timelines: the dumps are part of the reproducibility contract.
func TestObservedRunsAreByteIdentical(t *testing.T) {
	for _, mem := range []MemKind{DMA, Cache} {
		cfg := DefaultConfig()
		cfg.Mem = mem
		t1, j1, tr1 := observedRun(t, cfg)
		t2, j2, tr2 := observedRun(t, cfg)
		if !bytes.Equal(t1, t2) {
			t.Errorf("%v: text dumps differ", mem)
		}
		if !bytes.Equal(j1, j2) {
			t.Errorf("%v: JSON dumps differ", mem)
		}
		if !bytes.Equal(tr1, tr2) {
			t.Errorf("%v: traces differ", mem)
		}
	}
}

// The DMA-mode dump must cover every major component the acceptance
// criteria name: cache (host flush activity), DRAM, bus, DMA, datapath.
func TestStatsDumpCoversComponents(t *testing.T) {
	cfg := DefaultConfig()
	text, jsonDump, trace := observedRun(t, cfg)
	dump := string(text)
	for _, path := range []string{
		"soc.accel.datapath.ops_issued",
		"soc.accel.dma.descriptors",
		"soc.accel.spad.reads",
		"soc.bus.transactions",
		"soc.cpu.cache.lines_flushed",
		"soc.dram.row_hits",
		"sim.events_fired",
	} {
		if !strings.Contains(dump, path) {
			t.Errorf("text dump missing %s", path)
		}
	}

	var nested map[string]any
	if err := json.Unmarshal(jsonDump, &nested); err != nil {
		t.Fatalf("JSON dump does not parse: %v", err)
	}
	if _, ok := nested["soc"]; !ok {
		t.Error("JSON dump missing soc subtree")
	}

	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &tf); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	tracks := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks[ev.Args["name"].(string)] = true
		}
	}
	for _, want := range []string{"bus", "dma", "cpu.flush", "datapath.lane0"} {
		if !tracks[want] {
			t.Errorf("trace missing track %q (have %v)", want, tracks)
		}
	}
	hasDRAM := false
	for name := range tracks {
		if strings.HasPrefix(name, "dram.bank") {
			hasDRAM = true
		}
	}
	if !hasDRAM {
		t.Errorf("trace missing DRAM bank tracks (have %v)", tracks)
	}
}

// Observability must not perturb the simulation: runtimes with and without
// an observer attached are identical.
func TestObserverDoesNotPerturbTiming(t *testing.T) {
	g := streamKernel(512)
	cfg := DefaultConfig()
	plain := mustRun(t, g, cfg)
	cfg.Obs = obs.New(true)
	observed := mustRun(t, g, cfg)
	if plain.Runtime != observed.Runtime {
		t.Fatalf("observer changed runtime: %v vs %v", plain.Runtime, observed.Runtime)
	}
}

// A multi-accelerator invocation nests the second accelerator's stats and
// tracks under accel1.
func TestMultiAcceleratorObservability(t *testing.T) {
	g := streamKernel(256)
	cfg := DefaultConfig()
	o := obs.New(true)
	cfg.Obs = o
	if _, err := together([]*Compiled{Compile(g), Compile(g)}, []Config{cfg, cfg}); err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := o.Registry.DumpText(&tb); err != nil {
		t.Fatal(err)
	}
	dump := tb.String()
	if !strings.Contains(dump, "soc.accel.datapath.ops_issued") ||
		!strings.Contains(dump, "soc.accel1.datapath.ops_issued") {
		t.Fatalf("multi-accel dump missing per-instance paths:\n%s", dump)
	}
}
