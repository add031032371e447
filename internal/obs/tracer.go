package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// tickPerMicro converts engine ticks (picoseconds) to the microseconds the
// Chrome trace-event format expects in its ts/dur fields.
const tickPerMicro = 1e6

// Tracer collects probe events onto named tracks and exports them as a
// Chrome trace-event / Perfetto JSON timeline: one process ("soc"), one
// thread per track, span events for activity windows and instant events
// for point occurrences. Load the output at ui.perfetto.dev.
type Tracer struct {
	tracks   []*Track
	byName   map[string]*Track
	flushers []func()
}

// Track is one horizontal timeline row in the exported trace.
type Track struct {
	name   string
	tid    int
	events []Event
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{byName: make(map[string]*Track)}
}

// Track returns the track with the given name, creating it on first use.
// Creation order fixes the vertical order in the Perfetto UI.
func (t *Tracer) Track(name string) *Track {
	if tr, ok := t.byName[name]; ok {
		return tr
	}
	tr := &Track{name: name, tid: len(t.tracks) + 1}
	t.byName[name] = tr
	t.tracks = append(t.tracks, tr)
	return tr
}

// Tracks returns the track names in creation order.
func (t *Tracer) Tracks() []string {
	out := make([]string, len(t.tracks))
	for i, tr := range t.tracks {
		out[i] = tr.name
	}
	return out
}

// Events reports the total number of recorded events.
func (t *Tracer) Events() int {
	n := 0
	for _, tr := range t.tracks {
		n += len(tr.events)
	}
	return n
}

// Add records an event on the track.
func (tr *Track) Add(ev Event) { tr.events = append(tr.events, ev) }

// Subscribe routes every event fired on p to the named track.
func (t *Tracer) Subscribe(p *Probe, track string) {
	tr := t.Track(track)
	p.Listen(tr.Add)
}

// SubscribeFunc routes each event to the track chosen by name(ev),
// letting one probe fan out across per-bank or per-master tracks.
func (t *Tracer) SubscribeFunc(p *Probe, name func(Event) string) {
	p.Listen(func(ev Event) { t.Track(name(ev)).Add(ev) })
}

// laneWindow is one open busy span being coalesced by MergeLanes.
type laneWindow struct {
	start, end uint64
	ops        uint64
}

// MergeLanes subscribes to p and coalesces its (typically very dense)
// per-node span events into per-lane busy windows: consecutive events on
// one lane whose gap is at most gap ticks merge into a single span named
// spanName, with the merged op count attached. Tracks are named
// fmt.Sprintf(trackFmt, lane). This keeps datapath tracks compact — a
// 100k-node kernel becomes a handful of busy/stall windows — while the
// probe itself still reports every node retirement to other listeners.
func (t *Tracer) MergeLanes(p *Probe, trackFmt, spanName string, gap uint64) {
	open := make(map[int32]*laneWindow)
	flush := func(lane int32, w *laneWindow) {
		t.Track(fmt.Sprintf(trackFmt, lane)).Add(Event{
			Name: spanName, Start: w.start, End: w.end, Lane: lane, Count: w.ops})
	}
	p.Listen(func(ev Event) {
		w := open[ev.Lane]
		if w != nil && ev.Start <= w.end+gap {
			if ev.End > w.end {
				w.end = ev.End
			}
			w.ops++
			return
		}
		if w != nil {
			flush(ev.Lane, w)
		}
		open[ev.Lane] = &laneWindow{start: ev.Start, end: ev.End, ops: 1}
	})
	t.flushers = append(t.flushers, func() {
		lanes := make([]int32, 0, len(open))
		for lane := range open {
			lanes = append(lanes, lane)
		}
		sort.Slice(lanes, func(i, j int) bool { return lanes[i] < lanes[j] })
		for _, lane := range lanes {
			flush(lane, open[lane])
			delete(open, lane)
		}
	})
}

// traceEvent is one JSON record in the Chrome trace-event format.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const socPid = 1

// traceWriter streams one trace-event JSON document, the one writer
// behind both Tracer.WriteJSON (simulated time) and
// SpanTracer.WriteTraceJSON (wall-clock time). Callers write the
// document's head and tail; event writes the records between them with
// their commas. It keeps the first write or marshal error, after which
// every call is a no-op, so export loops stay unconditional. Events
// stream to w one at a time and are never materialized as one slice.
type traceWriter struct {
	w     io.Writer
	err   error
	comma bool // an event was written, so the next one needs a comma
}

func (tw *traceWriter) write(s string) {
	if tw.err == nil {
		_, tw.err = io.WriteString(tw.w, s)
	}
}

// event appends one record to the event array.
func (tw *traceWriter) event(te traceEvent) {
	if tw.err != nil {
		return
	}
	b, err := json.Marshal(te)
	if err == nil && tw.comma {
		_, err = io.WriteString(tw.w, ",")
	}
	if err == nil {
		_, err = tw.w.Write(b)
	}
	tw.err, tw.comma = err, true
}

// meta appends a metadata record naming or ordering the process (tid 0)
// or one of its threads.
func (tw *traceWriter) meta(name string, tid int, key string, value any) {
	tw.event(traceEvent{Name: name, Ph: "M", Pid: socPid, Tid: tid,
		Args: map[string]any{key: value}})
}

// WriteJSON flushes any open merge windows and writes the whole timeline.
// Identical runs produce byte-identical output: tracks serialize in
// creation order, events in recording order, and metadata uses no
// map-ordered iteration.
func (t *Tracer) WriteJSON(w io.Writer) error {
	for _, fl := range t.flushers {
		fl()
	}
	tw := &traceWriter{w: w}
	tw.write(`{"traceEvents":[`)
	tw.meta("process_name", 0, "name", "gem5-aladdin soc")
	for i, tr := range t.tracks {
		tw.meta("thread_name", tr.tid, "name", tr.name)
		tw.meta("thread_sort_index", tr.tid, "sort_index", i)
	}
	for _, tr := range t.tracks {
		for _, ev := range tr.events {
			te := traceEvent{
				Name: ev.Name,
				Ts:   float64(ev.Start) / tickPerMicro,
				Pid:  socPid,
				Tid:  tr.tid,
				Args: eventArgs(ev),
			}
			if ev.Instant() {
				te.Ph = "i"
				te.S = "t"
			} else {
				te.Ph = "X"
				dur := float64(ev.End-ev.Start) / tickPerMicro
				te.Dur = &dur
			}
			tw.event(te)
		}
	}
	tw.write("],\"displayTimeUnit\":\"ns\"}\n")
	return tw.err
}

// eventArgs builds the args payload; JSON map keys marshal sorted, so this
// stays deterministic.
func eventArgs(ev Event) map[string]any {
	if ev.Bytes == 0 && ev.Count == 0 && ev.Lane <= 0 {
		return nil
	}
	args := make(map[string]any, 3)
	if ev.Bytes != 0 {
		args["bytes"] = ev.Bytes
	}
	if ev.Count != 0 {
		args["count"] = ev.Count
	}
	if ev.Lane > 0 {
		args["lane"] = ev.Lane
	}
	return args
}
