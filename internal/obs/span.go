package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed operation in a request-scoped trace: an HTTP sweep
// request, its admission wait, a cache lookup, one design-point simulation.
// Spans measure wall-clock time (unlike probe Events, which measure
// simulated ticks) and link into trees via parent span IDs, so a served
// sweep renders as request → admission/cache/queue → per-point rows.
//
// The nil *Span is a valid disabled span: every method is a no-op and
// Child returns nil, so instrumented code pays a single nil check when
// tracing is off and needs no conditional wiring.
type Span struct {
	tracer *SpanTracer

	// TraceID groups every span of one request; SpanID identifies this
	// span and ParentID links to the enclosing one (0 = root).
	TraceID  string
	SpanID   uint64
	ParentID uint64

	// Name labels the operation ("sweep", "admission-wait", "point").
	Name string
	// Track groups spans onto rows in the Perfetto export: spans on one
	// track must be sequential (a request's phases); concurrent spans
	// (per-worker simulations) belong on distinct tracks. Track 0 renders
	// as row 1.
	Track int

	Start time.Time
	End   time.Time

	attrs []Attr
	ended atomic.Bool
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SetAttr annotates the span. No-op on nil.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Child starts a sub-span on the same trace. Returns nil on a nil receiver,
// so call chains stay unconditional at instrumentation sites.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.start(s.TraceID, s.SpanID, name, s.Track)
}

// ChildOn is Child on an explicit track (concurrent workers use distinct
// tracks so their spans do not overlap on one Perfetto row).
func (s *Span) ChildOn(name string, track int) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.start(s.TraceID, s.SpanID, name, track)
}

// Dur returns the span duration (zero until End is called).
func (s *Span) Dur() time.Duration {
	if s == nil || s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// EndSpan closes the span, records it in the tracer's retention ring, and
// appends it to the JSONL sink when one is configured. Idempotent; no-op
// on nil.
func (s *Span) EndSpan() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	s.End = s.tracer.now()
	s.tracer.finish(s)
}

// spanRecord is the JSONL wire form of a finished span.
type spanRecord struct {
	Trace  string  `json:"trace"`
	Span   uint64  `json:"span"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Track  int     `json:"track,omitempty"`
	Start  string  `json:"start"`
	DurUS  float64 `json:"dur_us"`
	Attrs  []Attr  `json:"attrs,omitempty"`
}

// SpanTracer mints trace and span IDs, retains a bounded ring of finished
// spans for by-ID export (GET /trace/{id} in the sweep service), and
// optionally appends every finished span as one JSON line to a sink.
// Safe for concurrent use. The nil *SpanTracer is disabled: StartTrace
// returns a nil span.
type SpanTracer struct {
	mu     sync.Mutex
	sink   io.Writer
	ring   []*Span // retention ring, nil slots until full
	next   int     // ring cursor
	nextID atomic.Uint64

	// nowFn and traceIDFn are test seams; defaults are time.Now and a
	// random 64-bit hex string.
	nowFn     func() time.Time
	traceIDFn func() string
}

// DefaultSpanRetention bounds how many finished spans a tracer retains for
// by-ID trace export.
const DefaultSpanRetention = 8192

// NewSpanTracer returns a tracer retaining up to retention finished spans
// (<= 0 selects DefaultSpanRetention). sink, when non-nil, receives each
// finished span as one JSON line; writes are serialized.
func NewSpanTracer(sink io.Writer, retention int) *SpanTracer {
	if retention <= 0 {
		retention = DefaultSpanRetention
	}
	return &SpanTracer{sink: sink, ring: make([]*Span, retention)}
}

func (t *SpanTracer) now() time.Time {
	if t.nowFn != nil {
		return t.nowFn()
	}
	return time.Now()
}

func (t *SpanTracer) newTraceID() string {
	if t.traceIDFn != nil {
		return t.traceIDFn()
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not worth failing a trace over; fall back
		// to the span counter, which is still unique within the process.
		return fmt.Sprintf("t%016x", t.nextID.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// StartTrace opens a new root span under a fresh trace ID. Returns nil on
// a nil tracer, so callers thread the result through unconditionally.
func (t *SpanTracer) StartTrace(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(t.newTraceID(), 0, name, 0)
}

func (t *SpanTracer) start(traceID string, parent uint64, name string, track int) *Span {
	return &Span{
		tracer:   t,
		TraceID:  traceID,
		SpanID:   t.nextID.Add(1),
		ParentID: parent,
		Name:     name,
		Track:    track,
		Start:    t.now(),
	}
}

func (t *SpanTracer) finish(s *Span) {
	t.mu.Lock()
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
	if t.sink != nil {
		rec := spanRecord{
			Trace:  s.TraceID,
			Span:   s.SpanID,
			Parent: s.ParentID,
			Name:   s.Name,
			Track:  s.Track,
			Start:  s.Start.UTC().Format(time.RFC3339Nano),
			DurUS:  float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Attrs:  s.attrs,
		}
		// One marshal + one write per span: a long service run never
		// materializes its span history.
		if b, err := json.Marshal(rec); err == nil {
			t.sink.Write(append(b, '\n'))
		}
	}
	t.mu.Unlock()
}

// Collect returns the retained finished spans of one trace, in end order.
// Empty when the trace is unknown or has aged out of the retention ring.
func (t *SpanTracer) Collect(traceID string) []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Span
	n := len(t.ring)
	for i := 0; i < n; i++ {
		if s := t.ring[(t.next+i)%n]; s != nil && s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// WriteTraceJSON renders one trace's retained spans as a Chrome
// trace-event / Perfetto JSON timeline: one process, one thread per span
// track, ph="X" complete events with wall-clock microsecond timestamps
// relative to the earliest span. Returns false (writing nothing) when the
// trace has no retained spans.
func (t *SpanTracer) WriteTraceJSON(w io.Writer, traceID string) (bool, error) {
	spans := t.Collect(traceID)
	if len(spans) == 0 {
		return false, nil
	}
	epoch := spans[0].Start
	tracks := make([]int, 0, len(spans))
	for _, s := range spans {
		if s.Start.Before(epoch) {
			epoch = s.Start
		}
		tracks = append(tracks, s.Track)
	}
	slices.Sort(tracks)
	tw := &traceWriter{w: w}
	tw.write(`{"displayTimeUnit":"ms","traceEvents":[`)
	tw.meta("process_name", 0, "name", "sweep trace "+traceID)
	for _, tr := range slices.Compact(tracks) {
		tw.meta("thread_name", tr+1, "name", fmt.Sprintf("track %d", tr))
	}
	for _, s := range spans {
		dur := float64(s.End.Sub(s.Start)) / float64(time.Microsecond)
		ev := traceEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur:  &dur,
			Pid:  socPid,
			Tid:  s.Track + 1,
		}
		if len(s.attrs) > 0 || s.SpanID != 0 {
			args := make(map[string]any, len(s.attrs)+2)
			args["span"] = s.SpanID
			if s.ParentID != 0 {
				args["parent"] = s.ParentID
			}
			for _, a := range s.attrs {
				args[a.Key] = a.Value
			}
			ev.Args = args
		}
		tw.event(ev)
	}
	tw.write("]}\n")
	return true, tw.err
}

// spanCtxKey carries a *Span through a context.
type spanCtxKey struct{}

// WithSpan returns a context carrying s; SpanFromContext recovers it.
// Layers that cannot grow their signatures (dse.Sweep) receive their
// parent span this way.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil. The nil result
// is a valid disabled span, so call sites need no found-flag.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
