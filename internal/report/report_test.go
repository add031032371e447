package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/trace"
)

func sampleResult(t *testing.T) *soc.RunResult {
	t.Helper()
	b := trace.NewBuilder("sample")
	a := b.Alloc("a", trace.F64, 64, trace.InOut)
	for i := 0; i < 64; i++ {
		b.SetF64(a, i, 1)
	}
	for i := 0; i < 64; i++ {
		b.BeginIter()
		b.Store(a, i, b.FAdd(b.Load(a, i), b.ConstF(1)))
	}
	r, err := soc.Run(soc.Compile(ddg.Build(b.Finish())), soc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFromResult(t *testing.T) {
	r := sampleResult(t)
	rec := FromResult("sample", r)
	if rec.Benchmark != "sample" || rec.Mem != "dma" {
		t.Fatalf("record = %+v", rec)
	}
	if rec.RuntimeUS <= 0 || rec.PowerMW <= 0 || rec.EDPNJS <= 0 {
		t.Fatalf("record metrics missing: %+v", rec)
	}
	total := rec.FlushOnlyUS + rec.DMAOnlyUS + rec.ComputeDMAUS + rec.ComputeOnlyUS + rec.IdleUS
	if diff := total - rec.RuntimeUS; diff > 0.01 || diff < -0.01 {
		t.Fatalf("breakdown sums to %v, runtime %v", total, rec.RuntimeUS)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	rec := FromResult("sample", sampleResult(t))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []Record{rec}); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != rec {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rec)
	}
}

func TestWriteCSV(t *testing.T) {
	rec := FromResult("sample", sampleResult(t))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []Record{rec, rec}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	header := Header()
	if len(rows[0]) != len(header) {
		t.Fatalf("header width %d, want %d", len(rows[0]), len(header))
	}
	if rows[0][0] != "benchmark" || rows[1][0] != "sample" {
		t.Fatalf("csv content wrong: %v", rows[0])
	}
	// Every header cell is non-empty and unique.
	seen := map[string]bool{}
	for _, h := range header {
		if h == "" || seen[h] {
			t.Fatalf("bad header entry %q in %v", h, header)
		}
		seen[h] = true
	}
}

func TestHeaderMatchesJSONKeys(t *testing.T) {
	rec := FromResult("sample", sampleResult(t))
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range Header() {
		if !strings.Contains(string(raw), `"`+h+`"`) {
			t.Fatalf("header %q missing from JSON %s", h, raw)
		}
	}
}
