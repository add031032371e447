// Package obs is the observability layer of the gem5-Aladdin reproduction,
// playing the role of gem5's statistics framework and probe-point
// instrumentation. It has three pieces:
//
//   - a hierarchical stats Registry: components register named scalars
//     (Counter, Gauge, Formula) and Histograms under dotted paths such as
//     soc.bus.transactions or accel.0.dma.bytes_moved, and the whole tree
//     dumps as a deterministic gem5-stats.txt-style text snapshot or as
//     nested JSON;
//
//   - Probe, a near-zero-overhead-when-disabled hook API: components fire
//     timestamped events (bus grants, DRAM beats, cache fills, DMA bursts,
//     datapath node retirement) that cost one nil/empty-slice branch when
//     nobody listens;
//
//   - Tracer, a Chrome trace-event / Perfetto JSON exporter that subscribes
//     to probes and lays the events out on named per-component tracks
//     loadable in ui.perfetto.dev.
//
// The package intentionally depends only on the standard library — times
// are raw engine ticks (picoseconds) as uint64 — so the simulation kernel
// itself can carry probes without an import cycle.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Kind classifies a registered statistic.
type Kind uint8

// Statistic kinds.
const (
	// KindCounter is a monotonically increasing integer.
	KindCounter Kind = iota
	// KindGauge is an instantaneous float value.
	KindGauge
	// KindFormula is a float derived from other statistics at dump time.
	KindFormula
	// KindHistogram is a bucketed distribution.
	KindHistogram
)

// Stat is one registered statistic.
type Stat struct {
	path string
	desc string
	kind Kind

	intFn   func() uint64
	floatFn func() float64
	hist    *Histogram
}

// Path returns the dotted registration path.
func (s *Stat) Path() string { return s.path }

// Kind returns the statistic kind.
func (s *Stat) Kind() Kind { return s.kind }

// Counter is a live integer counter handle for components that do not
// already keep their own counters.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Histogram is a fixed-bucket distribution. Bucket i counts samples in
// [bounds[i-1], bounds[i]); the last bucket is unbounded above.
type Histogram struct {
	bounds  []float64
	counts  []uint64
	samples uint64
	sum     float64
	min     float64
	max     float64
}

// Observe records one sample. NaN observations are dropped — they cannot
// be bucketed (every comparison is false) and would poison min/max/sum —
// while ±Inf land in the outermost buckets and saturate min/max.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if h.samples == 0 || v < h.min {
		h.min = v
	}
	if h.samples == 0 || v > h.max {
		h.max = v
	}
	h.samples++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) && h.bounds[i] == v {
		i++ // bucket upper bounds are exclusive
	}
	h.counts[i]++
}

// Samples returns how many values were observed.
func (h *Histogram) Samples() uint64 { return h.samples }

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.samples == 0 {
		return 0
	}
	return h.sum / float64(h.samples)
}

// Quantile estimates the q-th quantile (q in [0,1]) from the bucket counts
// by linear interpolation inside the bucket holding the target rank. The
// first bucket interpolates from the observed minimum and the catch-all last
// bucket is clamped to the observed maximum, so the estimate always lies in
// [min, max]. Zero samples return 0. Services report p50/p99 latencies this
// way without retaining individual samples.
func (h *Histogram) Quantile(q float64) float64 {
	if h.samples == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.samples)
	var cum float64
	for i, c := range h.counts {
		next := cum + float64(c)
		if next < rank || c == 0 {
			cum = next
			continue
		}
		lo := h.min
		if i > 0 && h.bounds[i-1] > lo {
			lo = h.bounds[i-1]
		}
		hi := h.max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if hi < lo {
			// A bucket entirely above the observed max (or below the min)
			// degenerates; clamp to the observed extreme.
			return h.max
		}
		return lo + (hi-lo)*(rank-cum)/float64(c)
	}
	return h.max
}

// Registry is a hierarchical collection of statistics. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	stats  []*Stat
	byPath map[string]*Stat
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byPath: make(map[string]*Stat)}
}

func (r *Registry) add(s *Stat) *Stat {
	if s.path == "" {
		panic("obs: empty stat path")
	}
	if _, dup := r.byPath[s.path]; dup {
		panic(fmt.Sprintf("obs: duplicate stat path %q", s.path))
	}
	r.byPath[s.path] = s
	r.stats = append(r.stats, s)
	return s
}

// CounterFunc registers an integer counter read through fn at dump time.
// Components with existing Stats structs migrate this way: registration
// adds no work to their hot paths.
func (r *Registry) CounterFunc(path, desc string, fn func() uint64) {
	r.add(&Stat{path: path, desc: desc, kind: KindCounter, intFn: fn})
}

// GaugeFunc registers an instantaneous float read through fn at dump time.
func (r *Registry) GaugeFunc(path, desc string, fn func() float64) {
	r.add(&Stat{path: path, desc: desc, kind: KindGauge, floatFn: fn})
}

// Formula registers a derived value (rates, ratios, utilizations) computed
// from other statistics at dump time.
func (r *Registry) Formula(path, desc string, fn func() float64) {
	r.add(&Stat{path: path, desc: desc, kind: KindFormula, floatFn: fn})
}

// Counter registers and returns a live counter handle.
func (r *Registry) Counter(path, desc string) *Counter {
	c := &Counter{}
	r.CounterFunc(path, desc, c.Value)
	return c
}

// Histogram registers a distribution with the given ascending bucket upper
// bounds (a final catch-all bucket is implicit).
func (r *Registry) Histogram(path, desc string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", path))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1)}
	r.add(&Stat{path: path, desc: desc, kind: KindHistogram, hist: h})
	return h
}

// Lookup returns the statistic registered at path, or nil.
func (r *Registry) Lookup(path string) *Stat { return r.byPath[path] }

// Len reports how many statistics are registered.
func (r *Registry) Len() int { return len(r.stats) }

// sorted returns the stats in lexicographic path order, so dumps are
// independent of wiring order.
func (r *Registry) sorted() []*Stat {
	out := make([]*Stat, len(r.stats))
	copy(out, r.stats)
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// formatFloat renders a float the way gem5's stats.txt does: fixed
// six-digit precision, with NaN/Inf spelled out.
func formatFloat(v float64) string {
	if math.IsNaN(v) {
		return "nan"
	}
	if math.IsInf(v, 0) {
		return "inf"
	}
	return fmt.Sprintf("%.6f", v)
}

// DumpText writes a gem5-stats.txt-style snapshot: one line per scalar,
// `path  value  # description`, sorted by path, bracketed by Begin/End
// markers. Histograms expand into ::samples/::mean/::min/::max plus one
// line per bucket. Byte-identical across identical runs.
func (r *Registry) DumpText(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "---------- Begin Simulation Statistics ----------"); err != nil {
		return err
	}
	line := func(path, value, desc string) error {
		_, err := fmt.Fprintf(w, "%-50s %20s  # %s\n", path, value, desc)
		return err
	}
	for _, s := range r.sorted() {
		switch s.kind {
		case KindCounter:
			if err := line(s.path, fmt.Sprintf("%d", s.intFn()), s.desc); err != nil {
				return err
			}
		case KindGauge, KindFormula:
			if err := line(s.path, formatFloat(s.floatFn()), s.desc); err != nil {
				return err
			}
		case KindHistogram:
			h := s.hist
			if err := line(s.path+"::samples", fmt.Sprintf("%d", h.samples), s.desc); err != nil {
				return err
			}
			if err := line(s.path+"::mean", formatFloat(h.Mean()), s.desc); err != nil {
				return err
			}
			if err := line(s.path+"::min", formatFloat(h.min), s.desc); err != nil {
				return err
			}
			if err := line(s.path+"::max", formatFloat(h.max), s.desc); err != nil {
				return err
			}
			for i, c := range h.counts {
				var lo, hi string
				if i == 0 {
					lo = "-inf"
				} else {
					lo = fmt.Sprintf("%g", h.bounds[i-1])
				}
				if i == len(h.bounds) {
					hi = "+inf"
				} else {
					hi = fmt.Sprintf("%g", h.bounds[i])
				}
				bucket := fmt.Sprintf("%s::%s-%s", s.path, lo, hi)
				if err := line(bucket, fmt.Sprintf("%d", c), s.desc); err != nil {
					return err
				}
			}
		}
	}
	_, err := fmt.Fprintln(w, "---------- End Simulation Statistics   ----------")
	return err
}

// DumpJSON writes the statistics as a nested JSON object keyed by the
// dotted path segments (keys sorted, so the output is deterministic).
func (r *Registry) DumpJSON(w io.Writer) error {
	root := make(map[string]any)
	for _, s := range r.sorted() {
		node := root
		parts := strings.Split(s.path, ".")
		for _, p := range parts[:len(parts)-1] {
			child, ok := node[p].(map[string]any)
			if !ok {
				child = make(map[string]any)
				node[p] = child
			}
			node = child
		}
		leaf := parts[len(parts)-1]
		switch s.kind {
		case KindCounter:
			node[leaf] = s.intFn()
		case KindGauge, KindFormula:
			node[leaf] = jsonFloat(s.floatFn())
		case KindHistogram:
			h := s.hist
			buckets := make([]map[string]any, len(h.counts))
			for i, c := range h.counts {
				b := map[string]any{"count": c}
				if i > 0 {
					b["lo"] = h.bounds[i-1]
				}
				if i < len(h.bounds) {
					b["hi"] = h.bounds[i]
				}
				buckets[i] = b
			}
			node[leaf] = map[string]any{
				"samples": h.samples,
				"mean":    jsonFloat(h.Mean()),
				"min":     jsonFloat(h.min),
				"max":     jsonFloat(h.max),
				"buckets": buckets,
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(root)
}

// jsonFloat maps NaN/Inf (not representable in JSON) to nil.
func jsonFloat(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return v
}
