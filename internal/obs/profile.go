package obs

import (
	"fmt"
	"io"
)

// Bucket classifies where a simulated tick went in the cycle-attribution
// profile. Declaration order is attribution priority: a tick covered by
// several components' activity windows is charged to the lowest-numbered
// bucket, so compute overlapped with a DMA burst counts as compute and the
// DMA bucket keeps only transfer time the datapath could not hide.
type Bucket uint8

// Attribution buckets, highest priority first.
const (
	// BucketCacheMiss is accelerator-cache miss service time (MSHR
	// allocation to fill), demand and prefetch alike. It outranks compute
	// because a load node's datapath span covers issue to retire — miss
	// latency included — so the miss window is the more specific charge
	// for ticks both cover; what remains of the datapath span is genuine
	// compute and issue overhead.
	BucketCacheMiss Bucket = iota
	// BucketCompute is datapath-lane activity (node issue to retire).
	BucketCompute
	// BucketDMA is DMA descriptor transfer time. Ranked below compute so
	// it keeps only transfers the datapath could not hide — the paper's
	// "exposed data movement".
	BucketDMA
	// BucketFlush is CPU cache flush/invalidate work for DMA coherence.
	BucketFlush
	// BucketBus is system-bus occupancy: arbitration, address, data
	// phases, and NACK/retry windows.
	BucketBus
	// BucketDRAM is DRAM bank busy time (row activation + burst service).
	BucketDRAM
	// BucketIdle is the remainder: ticks no instrumented component
	// claimed.
	BucketIdle

	// NumBuckets counts the buckets, BucketIdle included.
	NumBuckets = int(BucketIdle) + 1
)

// String names the bucket for tables and folded stacks.
func (b Bucket) String() string {
	switch b {
	case BucketCompute:
		return "compute"
	case BucketDMA:
		return "dma"
	case BucketFlush:
		return "flush"
	case BucketCacheMiss:
		return "cache-miss"
	case BucketBus:
		return "bus"
	case BucketDRAM:
		return "dram"
	case BucketIdle:
		return "idle"
	}
	return fmt.Sprintf("Bucket(%d)", uint8(b))
}

// Profile accumulates per-bucket activity windows from the existing probe
// points and attributes every simulated tick of a run to exactly one
// bucket. Collection is append-only (one slice append per probe event);
// the interval algebra runs once at Attribute time. Not safe for
// concurrent use: one Profile observes one single-threaded simulation.
type Profile struct {
	windows [NumBuckets][]Interval
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{} }

// Observe records one activity window. Zero-length windows (instant
// events: cache writebacks, fault markers) carry no cycles and are
// dropped.
func (p *Profile) Observe(b Bucket, start, end uint64) {
	if end <= start {
		return
	}
	p.windows[b] = append(p.windows[b], Interval{start, end})
}

// Listener adapts a bucket to the probe API: subscribe it with
// Probe.Listen and every span event fired on the probe lands in b.
func (p *Profile) Listener(b Bucket) func(Event) {
	return func(ev Event) { p.Observe(b, ev.Start, ev.End) }
}

// Reset clears collected windows, retaining capacity, so one Profile can
// observe a sweep of design points without reallocating.
func (p *Profile) Reset() {
	for b := range p.windows {
		p.windows[b] = p.windows[b][:0]
	}
}

// Attribution is the result of one attribution pass: exclusive tick
// counts per bucket. The counts sum to Total exactly — every tick of
// [0, Total) lands in precisely one bucket — which the MachSuite
// regression gate asserts kernel by kernel.
type Attribution struct {
	Ticks [NumBuckets]uint64
	Total uint64
}

// Attribute charges every tick of [0, total) to exactly one bucket:
// buckets claim their activity windows in priority order (earlier buckets
// win overlaps), windows are clipped to [0, total), and unclaimed ticks
// fall to BucketIdle. It is one Partition over the buckets' windows.
func (p *Profile) Attribute(total uint64) Attribution {
	att := Attribution{Total: total}
	copy(att.Ticks[:], Partition(total, p.windows[:BucketIdle]...))
	att.Ticks[BucketIdle] = total - att.Sum()
	return att
}

// Sum returns the bucket total (== Total by construction).
func (a Attribution) Sum() uint64 {
	var s uint64
	for _, t := range a.Ticks {
		s += t
	}
	return s
}

// WriteFolded writes the attribution in folded-stack format — one
// "root;bucket count" line per non-empty bucket — the input format of
// flamegraph.pl and speedscope. Counts are ticks.
func (a Attribution) WriteFolded(w io.Writer, root string) error {
	for b := 0; b < NumBuckets; b++ {
		if a.Ticks[b] == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s;%s %d\n", root, Bucket(b), a.Ticks[b]); err != nil {
			return err
		}
	}
	return nil
}
