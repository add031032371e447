package obs

import (
	"testing"
	"testing/quick"
)

func TestMergeIntervals(t *testing.T) {
	ivs := []Interval{{10, 20}, {15, 30}, {40, 50}, {50, 60}, {5, 8}}
	m := Merge(ivs)
	want := []Interval{{5, 8}, {10, 30}, {40, 60}}
	if len(m) != len(want) {
		t.Fatalf("merged = %v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("merged = %v, want %v", m, want)
		}
	}
	if Measure(Merge(ivs)) != 3+20+20 {
		t.Fatalf("total = %v", Measure(Merge(ivs)))
	}
	if Merge(nil) != nil {
		t.Fatal("nil merge should be nil")
	}
}

// Property: merged intervals are disjoint, sorted, and cover exactly the
// union of the inputs.
func TestMergeIntervalsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var ivs []Interval
		for i := 0; i+1 < len(raw); i += 2 {
			a, b := uint64(raw[i]), uint64(raw[i+1])
			if a > b {
				a, b = b, a
			}
			ivs = append(ivs, Interval{a, b})
		}
		m := Merge(ivs)
		for i := 1; i < len(m); i++ {
			if m[i].Start <= m[i-1].End {
				return false
			}
		}
		// Every input point inside some merged interval.
		for _, iv := range ivs {
			found := false
			for _, mm := range m {
				if iv.Start >= mm.Start && iv.End <= mm.End {
					found = true
					break
				}
			}
			if !found && iv.Start != iv.End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalSetAlgebra(t *testing.T) {
	a := []Interval{{0, 10}, {20, 30}}
	b := []Interval{{5, 25}}
	inter := Intersect(a, b)
	want := []Interval{{5, 10}, {20, 25}}
	if len(inter) != 2 || inter[0] != want[0] || inter[1] != want[1] {
		t.Fatalf("intersect = %v", inter)
	}
	sub := Subtract(a, b)
	wantSub := []Interval{{0, 5}, {25, 30}}
	if len(sub) != 2 || sub[0] != wantSub[0] || sub[1] != wantSub[1] {
		t.Fatalf("subtract = %v", sub)
	}
	uni := Merge(a, b)
	if len(uni) != 1 || uni[0] != (Interval{0, 30}) {
		t.Fatalf("union = %v", uni)
	}
}

func TestIntervalAlgebraEmpty(t *testing.T) {
	a := []Interval{{0, 10}}
	if got := Intersect(a, nil); got != nil {
		t.Fatalf("intersect with empty = %v", got)
	}
	if got := Subtract(nil, a); got != nil {
		t.Fatalf("empty minus a = %v", got)
	}
	sub := Subtract(a, nil)
	if len(sub) != 1 || sub[0] != a[0] {
		t.Fatalf("a minus empty = %v", sub)
	}
}

// Property: durations obey |A| = |A∩B| + |A\B|, and |A∪B| = |A|+|B|-|A∩B|.
func TestIntervalAlgebraProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var a, b []Interval
		for i := 0; i+1 < len(raw); i += 2 {
			lo, hi := uint64(raw[i]), uint64(raw[i+1])
			if lo > hi {
				lo, hi = hi, lo
			}
			if i%4 == 0 {
				a = append(a, Interval{lo, hi})
			} else {
				b = append(b, Interval{lo, hi})
			}
		}
		a, b = Merge(a), Merge(b)
		ta, tb := Measure(a), Measure(b)
		ti := Measure(Intersect(a, b))
		ts := Measure(Subtract(a, b))
		tu := Measure(Merge(a, b))
		return ta == ti+ts && tu == ta+tb-ti
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPartition checks priority and clipping: an earlier set keeps the
// ticks it shares with a later one, nothing at or past limit is charged,
// and unmerged input is merged first.
func TestPartition(t *testing.T) {
	got := Partition(100,
		[]Interval{{10, 30}},
		[]Interval{{40, 60}, {0, 50}},
		[]Interval{{90, 120}, {150, 160}},
		nil)
	want := []uint64{20, 40, 10, 0}
	if len(got) != len(want) {
		t.Fatalf("partition = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("partition = %v, want %v", got, want)
		}
	}
}
