package main

import (
	"math"
	"sort"
)

// quantile is one reported percentile of a sample: its value, the sample
// count, and how many samples lie strictly beyond the reported rank. A tail
// percentile means something only with enough samples beyond it; the
// benchmark prints both counts beside every percentile it reports.
type quantile struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// value at rank ceil(q*N) of the sorted sample. It returns the zero
// quantile for an empty sample.
func percentile(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return quantile{Value: s[rank-1], N: n, Beyond: n - rank}
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 { return percentile(xs, 0.5).Value }

// mean is the arithmetic mean of xs. The cold passes that time_to_front_s
// averages draw different inputs, so their mean averages over every drawn
// search trajectory or grid, where a median would keep one pass's.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latencyWindows splits a run's latencies, in the order they were taken,
// into consecutive windows of size samples; the remainder joins the last
// window, and a run shorter than one window is one window.
func latencyWindows(ms []float64, size int) [][]float64 {
	var out [][]float64
	for len(ms) >= 2*size {
		out = append(out, ms[:size])
		ms = ms[size:]
	}
	return append(out, ms)
}

// latencyMetrics reports the median and tail of per-operation latencies
// with the sample counts behind them. The latencies come in windows,
// consecutive stretches of the run: each percentile is taken within every
// window and the median over the windows is reported, so a stall of the
// machine during one stretch of the run moves the tail no more than it
// moves the median.
//
// The end-to-end tail is p90 on every workload: it is the highest
// percentile that every workload's windows support with about ten samples
// beyond it (grid's single window holds a few hundred calls). p99 is
// reported per layer, over the whole run, with its count beyond, and means
// something only on serve.
func latencyMetrics(o *outcome, windows [][]float64, what string) {
	var p50s, p90s, all []float64
	leastBeyond := 0
	for i, w := range windows {
		p50s = append(p50s, percentile(w, 0.5).Value)
		p90 := percentile(w, 0.9)
		p90s = append(p90s, p90.Value)
		if i == 0 || p90.Beyond < leastBeyond {
			leastBeyond = p90.Beyond
		}
		all = append(all, w...)
	}
	p99 := percentile(all, 0.99)
	o.e2e["latency_p50_ms"] = median(p50s)
	o.e2e["latency_p90_ms"] = median(p90s)
	o.untracedLayers["latency.samples"] = float64(len(all))
	o.untracedLayers["latency.p90_beyond"] = float64(leastBeyond)
	o.untracedLayers["latency.p99_ms"] = p99.Value
	o.untracedLayers["latency.p99_beyond"] = float64(p99.Beyond)
	o.notef("latency of %s over %d samples in %d windows: p50 %.4g ms, p90 %.4g ms (at least %d beyond in every window); p99 of the run %.4g ms (%d beyond)",
		what, len(all), len(windows), o.e2e["latency_p50_ms"], o.e2e["latency_p90_ms"], leastBeyond, p99.Value, p99.Beyond)
}
