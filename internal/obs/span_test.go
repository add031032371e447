package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilSpanIsDisabled(t *testing.T) {
	var s *Span
	s.SetAttr("k", 1) // must not panic
	s.EndSpan()
	if c := s.Child("x"); c != nil {
		t.Fatal("nil span's child not nil")
	}
	if c := s.ChildOn("x", 3); c != nil {
		t.Fatal("nil span's ChildOn not nil")
	}
	if s.Dur() != 0 {
		t.Fatal("nil span has duration")
	}
	var tr *SpanTracer
	if tr.StartTrace("root") != nil {
		t.Fatal("nil tracer started a span")
	}
	if tr.Collect("x") != nil {
		t.Fatal("nil tracer collected spans")
	}
}

func TestSpanTreeAndJSONL(t *testing.T) {
	var sink bytes.Buffer
	tr := NewSpanTracer(&sink, 16)
	now := time.Unix(1000, 0)
	tr.nowFn = func() time.Time { now = now.Add(time.Millisecond); return now }
	tr.traceIDFn = func() string { return "feedc0de" }

	root := tr.StartTrace("sweep")
	root.SetAttr("kernel", "gemm")
	child := root.Child("point")
	child.SetAttr("lanes", 4)
	grand := child.ChildOn("sim", 2)
	grand.EndSpan()
	child.EndSpan()
	child.EndSpan() // idempotent
	root.EndSpan()

	if root.TraceID != "feedc0de" || child.TraceID != root.TraceID {
		t.Fatalf("trace IDs: root=%q child=%q", root.TraceID, child.TraceID)
	}
	if child.ParentID != root.SpanID || grand.ParentID != child.SpanID {
		t.Fatal("parent links wrong")
	}
	if grand.Track != 2 || child.Track != 0 {
		t.Fatalf("tracks: grand=%d child=%d", grand.Track, child.Track)
	}
	if root.Dur() <= 0 {
		t.Fatal("root has no duration")
	}

	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d, want 3 (idempotent EndSpan):\n%s", len(lines), sink.String())
	}
	var rec spanRecord
	if err := json.Unmarshal([]byte(lines[2]), &rec); err != nil {
		t.Fatalf("bad JSONL: %v", err)
	}
	if rec.Name != "sweep" || rec.Trace != "feedc0de" || rec.DurUS <= 0 {
		t.Fatalf("root record wrong: %+v", rec)
	}

	got := tr.Collect("feedc0de")
	if len(got) != 3 || got[0].Name != "sim" || got[2].Name != "sweep" {
		names := make([]string, len(got))
		for i, s := range got {
			names[i] = s.Name
		}
		t.Fatalf("Collect order = %v", names)
	}
	if tr.Collect("unknown") != nil {
		t.Fatal("unknown trace collected spans")
	}
}

func TestSpanRetentionRingBounds(t *testing.T) {
	tr := NewSpanTracer(nil, 4)
	tr.traceIDFn = func() string { return "t1" }
	for i := 0; i < 10; i++ {
		tr.StartTrace("s").EndSpan()
	}
	if got := len(tr.Collect("t1")); got != 4 {
		t.Fatalf("retained %d spans, want ring bound 4", got)
	}
}

func TestWriteTraceJSONPerfettoShape(t *testing.T) {
	tr := NewSpanTracer(nil, 16)
	tr.traceIDFn = func() string { return "abc123" }
	now := time.Unix(2000, 0)
	tr.nowFn = func() time.Time { now = now.Add(250 * time.Microsecond); return now }

	root := tr.StartTrace("sweep")
	p := root.ChildOn("point", 1)
	p.SetAttr("idx", 0)
	p.EndSpan()
	root.EndSpan()

	var buf bytes.Buffer
	ok, err := tr.WriteTraceJSON(&buf, "abc123")
	if err != nil || !ok {
		t.Fatalf("WriteTraceJSON: ok=%v err=%v", ok, err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var spans, meta int
	for _, ev := range f.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
			if ev["dur"].(float64) <= 0 || ev["ts"].(float64) < 0 {
				t.Fatalf("bad span event: %v", ev)
			}
		case "M":
			meta++
		}
	}
	if spans != 2 || meta < 3 {
		t.Fatalf("event mix: spans=%d meta=%d", spans, meta)
	}

	if ok, err := tr.WriteTraceJSON(&buf, "missing"); ok || err != nil {
		t.Fatalf("unknown trace: ok=%v err=%v", ok, err)
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if SpanFromContext(ctx) != nil {
		t.Fatal("empty context carries a span")
	}
	if got := WithSpan(ctx, nil); got != ctx {
		t.Fatal("WithSpan(nil) must be identity")
	}
	tr := NewSpanTracer(nil, 4)
	s := tr.StartTrace("root")
	if SpanFromContext(WithSpan(ctx, s)) != s {
		t.Fatal("span did not round-trip through context")
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n < len(p) {
		return 0, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

// TestTraceExportsKeepFirstError checks the error policy both exports
// share: the first write or marshal error ends the export and is
// returned. A span attribute that cannot be marshalled fails the span
// export instead of dropping its event.
func TestTraceExportsKeepFirstError(t *testing.T) {
	tr := NewTracer()
	tr.Track("bus").Add(Event{Name: "read", Start: 0, End: 10})
	if err := tr.WriteJSON(&failWriter{n: 40}); err == nil || err.Error() != "disk full" {
		t.Fatalf("Tracer.WriteJSON on a failing writer: %v", err)
	}

	st := NewSpanTracer(nil, 8)
	st.traceIDFn = func() string { return "nan" }
	root := st.StartTrace("sweep")
	root.SetAttr("ratio", math.NaN())
	root.EndSpan()
	var buf bytes.Buffer
	if ok, err := st.WriteTraceJSON(&buf, "nan"); !ok || err == nil {
		t.Fatalf("unmarshallable attribute: ok=%v err=%v", ok, err)
	}
	if strings.Contains(buf.String(), "]}") {
		t.Fatalf("export closed the document after a marshal error: %s", buf.String())
	}
}
