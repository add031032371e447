package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// traceExportGolden holds the SHA-256 of each Perfetto export that
// TestTraceExportGolden writes. The values were computed while the
// simulated-time and the wall-clock exporters still had separate writers,
// and must never be edited: a mismatch means an export's bytes moved.
var traceExportGolden = map[string]string{
	"tracer": "bbea158c5a05535ed633e1dc5fab6c7634bb0e50ebb57c024daa9f538c37eb58",
	"spans":  "82302e6fc60b5b4b6a956f8f19aedb464224440fac680eeb4dc94e4696e79eb5",
}

// TestTraceExportGolden pins both trace exports byte for byte: the
// Tracer's simulated timeline (a subscribed track with a span and an
// instant, plus MergeLanes windows on two lanes) and the SpanTracer's
// wall-clock timeline of one request (points on tracks 3, 2 and 1,
// attributes of every kind the service sets, parent links).
func TestTraceExportGolden(t *testing.T) {
	tr := NewTracer()
	p := &Probe{}
	tr.Subscribe(p, "bus")
	p.Fire(Event{Name: "read", Start: 1_000_000, End: 3_500_000, Bytes: 128, Lane: 2})
	p.Fire(Event{Name: "nack", Start: 4_000_000, End: 4_000_000})
	lanes := &Probe{}
	tr.MergeLanes(lanes, "datapath.lane%d", "busy", 1_000)
	lanes.Fire(Event{Name: "add", Start: 0, End: 10_000, Lane: 1})
	lanes.Fire(Event{Name: "mul", Start: 10_500, End: 20_000, Lane: 1})
	lanes.Fire(Event{Name: "ld", Start: 5_000, End: 15_000, Lane: 0})
	lanes.Fire(Event{Name: "st", Start: 90_000, End: 95_000, Lane: 1})
	var simBuf bytes.Buffer
	if err := tr.WriteJSON(&simBuf); err != nil {
		t.Fatal(err)
	}

	st := NewSpanTracer(nil, 32)
	st.traceIDFn = func() string { return "5eed" }
	now := time.Unix(3000, 0)
	st.nowFn = func() time.Time { now = now.Add(125 * time.Microsecond); return now }
	root := st.StartTrace("sweep")
	root.SetAttr("kernel", "spmv-crs")
	adm := root.Child("admission-wait")
	adm.EndSpan()
	for _, track := range []int{3, 2, 1} {
		pt := root.ChildOn("point", track)
		pt.SetAttr("idx", track)
		pt.SetAttr("cached", track == 2)
		sim := pt.Child("simulate")
		sim.SetAttr("cycles", 1000*track)
		sim.EndSpan()
		pt.EndSpan()
	}
	root.EndSpan()
	var spanBuf bytes.Buffer
	if ok, err := st.WriteTraceJSON(&spanBuf, "5eed"); !ok || err != nil {
		t.Fatalf("WriteTraceJSON: ok=%v err=%v", ok, err)
	}

	for name, buf := range map[string][]byte{"tracer": simBuf.Bytes(), "spans": spanBuf.Bytes()} {
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != traceExportGolden[name] {
			t.Errorf("%s export digest %s, want %s\n%s", name, got, traceExportGolden[name], buf)
		}
	}
}
