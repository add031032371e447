package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONListsTheMetrics keeps ../BENCHMARK.json in step with the
// metrics the benchmark prints: untraced runs print exactly its end-to-end
// metrics, traced runs exactly its per-layer ones.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := func(defs []metricDef, prefix string) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[prefix+d.name] = d.unit
		}
		return m
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed map[string]string) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(printed))
		}
		for _, m := range listed {
			if u, ok := printed[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json lists %s in %s; the benchmark prints it %v in %q", kind, m.Name, m.Unit, ok, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, want(endToEnd, ""))
	layers := want(perLayer, "")
	for k, v := range want(endToEnd, "trace_overhead.") {
		layers[k] = v
	}
	check("per_layer", spec.PerLayer, layers)
}
