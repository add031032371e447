// Command perfbench is the repository's benchmark. It runs one workload —
// grid, search or serve — over inputs generated from --seed, measures for
// --seconds, checks the program's outputs, and prints one JSON result as
// the last line of standard output.
//
//	go run . --workload grid --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the benchmark first runs the same workload untraced in a child process,
// then again in-process with spans on, and prints the per-layer metrics and
// the tracing overhead (traced minus untraced) of every end-to-end metric.
// See README.md for the workloads, the metrics and their measured spread.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gem5aladdin/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"time_to_front_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run prints, on every workload. A
// layer the workload bypasses reads 0.
var perLayer = []metricDef{
	// front end: machsuite + trace, ddg, soc.Compile
	{"trace.build_ms", "ms"},
	{"ddg.build_ms", "ms"},
	{"soc.compile_ms", "ms"},
	{"trace.nodes", "count"},
	{"trace.build_allocs", "count"},
	{"ddg.build_allocs", "count"},
	{"soc.compile_allocs", "count"},
	// simulator core
	{"soc.run_ms.dma.bus", "ms"},
	{"soc.run_ms.dma.crossbar", "ms"},
	{"soc.run_ms.dma.mesh", "ms"},
	{"soc.run_ms.cache.bus", "ms"},
	{"soc.run_ms.cache.crossbar", "ms"},
	{"soc.run_ms.cache.mesh", "ms"},
	{"soc.host_ns_per_cycle", "ns"},
	{"soc.allocs_per_point", "count"},
	{"soc.alloc_bytes_per_point", "B"},
	// simulated work: deterministic sums over RunResults
	{"sim.points", "count"},
	{"sim.cycles", "count"},
	{"core.ops_issued", "count"},
	{"core.mem_stalls", "count"},
	{"spad.accesses", "count"},
	{"spad.bank_conflicts", "count"},
	{"cache.accesses", "count"},
	{"cache.misses", "count"},
	{"cache.mshr_stalls", "count"},
	{"coherence.c2c_fills", "count"},
	{"coherence.upgrades", "count"},
	{"tlb.misses", "count"},
	{"bus.transactions", "count"},
	{"bus.wait_ticks", "count"},
	{"dram.accesses", "count"},
	{"dram.row_hits", "count"},
	{"dma.bytes", "B"},
	{"dma.lines_flushed", "count"},
	{"model.digest", "hash"},
	// dse pool and search engine
	{"dse.worker_busy_frac", "ratio"},
	{"dse.search_engine_ms", "ms"},
	{"dse.search_rounds", "count"},
	{"dse.search_simulated", "count"},
	{"dse.search_front_size", "count"},
	// dse codec + store
	{"dse.store_lookup_us", "us"},
	{"store.open_ms", "ms"},
	{"store.puts", "count"},
	{"store.gets", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.total_bytes", "B"},
	{"store.compactions", "count"},
	// serve
	{"serve.request_self_ms_p50", "ms"},
	{"serve.cache_lookup_ms_p50", "ms"},
	{"serve.admission_wait_ms_p99", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.simulate_ms_p50", "ms"},
	{"serve.job_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.points_simulated", "count"},
	{"serve.rejected", "count"},
	// Go runtime, read in the untraced run
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_peak_mb", "MB"},
	// latency sample of the untraced run
	{"latency.samples", "count"},
	{"latency.p90_beyond", "count"},
	{"latency.p99_ms", "ms"},
	{"latency.p99_beyond", "count"},
}

// env is one run's settings.
type env struct {
	seed    uint64
	seconds float64
	workers int
	// dir is the run's scratch directory inside the checkout.
	dir string
	// spans is nil in untraced runs; sink holds every finished span.
	spans *obs.SpanTracer
	sink  *spanSink
}

func (e *env) traced() bool { return e.spans != nil }

// window is the measured duration.
func (e *env) window() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// outcome is what one workload run measured.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	// notes are human-readable lines printed before the result.
	notes []string
	// untracedLayers are per-layer values only an untraced run measures
	// faithfully (GC and the latency sample); the traced run reads them
	// from its untraced child.
	untracedLayers map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, untracedLayers: map[string]float64{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records failed operations with a reason.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.notef("FAILED: "+format, args...)
}

var workloads = map[string]func(*env) (*outcome, error){
	"grid":   runGrid,
	"search": runSearch,
	"serve":  runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// untracedPrefix marks the line carrying an untraced run's extra
// per-layer values, which a traced parent run reads.
const untracedPrefix = "perfbench-untraced: "

func main() {
	workload := flag.String("workload", "", "workload to run: grid, search or serve")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured duration in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload grid|search|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := execute(*workload, run, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func execute(workload string, run func(*env) (*outcome, error), seed uint64, seconds float64, traced bool) (*result, error) {
	var child *result
	var childLayers map[string]float64
	if traced {
		var err error
		child, childLayers, err = runUntracedChild(workload, seed, seconds)
		if err != nil {
			return nil, err
		}
	}

	e := &env{seed: seed, seconds: seconds, workers: runtime.NumCPU()}
	e.dir = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	if traced {
		e.sink = &spanSink{}
		e.spans = obs.NewSpanTracer(e.sink, 0)
	}
	o, err := run(e)
	if err != nil {
		return nil, err
	}
	if traced {
		// The spans were held in memory during the run; write them out now.
		path := filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-%d.jsonl", workload, seed))
		if err := os.WriteFile(path, e.sink.buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		o.notef("spans written to %s", path)
	}

	for _, n := range o.notes {
		fmt.Println(n)
	}
	res := &result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if !traced {
		for _, m := range endToEnd {
			v, ok := o.e2e[m.name]
			if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("end-to-end metric %s not measured (%v)", m.name, v)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
			fmt.Printf("%-18s %14.6g %s\n", m.name, v, m.unit)
		}
		extra, _ := json.Marshal(o.untracedLayers)
		fmt.Println(untracedPrefix + string(extra))
	} else {
		for k, v := range childLayers {
			o.layers[k] = v
		}
		for _, m := range perLayer {
			v := o.layers[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		for _, m := range endToEnd {
			name := "trace_overhead." + m.name
			res.Metrics[name] = metricValue{o.e2e[m.name] - child.Metrics[m.name].Value, m.unit}
		}
		res.Attempted += child.Attempted
		res.Failed += child.Failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// runUntracedChild runs the same workload with --trace 0 in a child
// process, so the traced run has untraced end-to-end values to subtract
// and the child starts from an empty heap like every untraced run.
func runUntracedChild(workload string, seed uint64, seconds float64) (*result, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("untraced run: %w", err)
	}
	var last string
	var layers map[string]float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, untracedPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &layers); err != nil {
				return nil, nil, fmt.Errorf("untraced run: %w", err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("untraced run: bad result line %q: %w", last, err)
	}
	return &res, layers, nil
}

// peakRSSMB is the process's peak resident set size so far in MB (2^20
// bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// medianSetup runs setup n times, each after a collection that returns
// freed memory to the OS, so that every repetition starts from a similar
// heap and repetitions do not pile up in the peak RSS. Every repetition but
// the last is torn down with teardown. It returns the median duration in
// seconds.
func medianSetup(n int, setup func() error, teardown func()) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			teardown()
		}
	}
	return median(secs), nil
}
