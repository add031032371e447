package obs

import (
	"cmp"
	"slices"
)

// Interval is one half-open activity window [Start, End) in engine ticks.
// A set is a slice of intervals; Merge turns any set into the disjoint,
// ascending form that Intersect, Subtract and Measure take.
type Interval struct{ Start, End uint64 }

// Merge returns the union of the given sets as a new disjoint, ascending
// set: overlapping and abutting windows coalesce and empty ones drop out.
// The inputs are not modified. Merging nothing returns nil.
func Merge(sets ...[]Interval) []Interval {
	n := 0
	for _, s := range sets {
		n += len(s)
	}
	if n == 0 {
		return nil
	}
	out := make([]Interval, 0, n)
	for _, s := range sets {
		for _, iv := range s {
			if iv.Start < iv.End {
				out = append(out, iv)
			}
		}
	}
	slices.SortFunc(out, func(a, b Interval) int { return cmp.Compare(a.Start, b.Start) })
	m := out[:0]
	for _, iv := range out {
		if k := len(m) - 1; k >= 0 && iv.Start <= m[k].End {
			m[k].End = max(m[k].End, iv.End)
			continue
		}
		m = append(m, iv)
	}
	return m
}

// Intersect returns the ticks both merged sets cover.
func Intersect(a, b []Interval) []Interval {
	var out []Interval
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].Start, b[j].Start), min(a[i].End, b[j].End)
		if lo < hi {
			out = append(out, Interval{lo, hi})
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// Subtract returns the ticks of merged set a that merged set b does not
// cover.
func Subtract(a, b []Interval) []Interval {
	var out []Interval
	j := 0
	for _, iv := range a {
		for j < len(b) && b[j].End <= iv.Start {
			j++
		}
		cur := iv.Start
		for k := j; k < len(b) && b[k].Start < iv.End; k++ {
			if b[k].Start > cur {
				out = append(out, Interval{cur, b[k].Start})
			}
			cur = max(cur, b[k].End)
		}
		if cur < iv.End {
			out = append(out, Interval{cur, iv.End})
		}
	}
	return out
}

// Measure returns the number of ticks a merged set covers.
func Measure(set []Interval) uint64 {
	var n uint64
	for _, iv := range set {
		n += iv.End - iv.Start
	}
	return n
}

// Partition charges every tick below limit to at most one set, by
// priority: each set claims the ticks of its union that no earlier set
// claimed. It returns the ticks each set claimed, in argument order; they
// never sum past limit, and limit minus their sum is what no set covered.
// The sets need not be merged.
func Partition(limit uint64, sets ...[]Interval) []uint64 {
	out := make([]uint64, len(sets))
	var claimed []Interval
	for i, s := range sets {
		m := Merge(s)
		for len(m) > 0 && m[len(m)-1].Start >= limit {
			m = m[:len(m)-1]
		}
		if k := len(m) - 1; k >= 0 {
			m[k].End = min(m[k].End, limit)
		}
		out[i] = Measure(Subtract(m, claimed))
		claimed = Merge(claimed, m)
	}
	return out
}
