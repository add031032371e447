package trace

import (
	"bytes"
	"testing"
)

func roundTripTrace(t *testing.T) *Trace {
	t.Helper()
	b := NewBuilder("rt")
	a := b.Alloc("a", F64, 16, In)
	o := b.Alloc("o", I32, 4, Out)
	for i := 0; i < 16; i++ {
		b.SetF64(a, i, float64(i)*1.5)
	}
	acc := b.ConstF(0)
	for i := 0; i < 16; i++ {
		b.BeginIter()
		acc = b.FAdd(acc, b.Load(a, i))
	}
	b.Store(o, 0, b.ConstI(7))
	return b.Finish()
}

func TestSerializeRoundTrip(t *testing.T) {
	orig := roundTripTrace(t)
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.Iters != orig.Iters {
		t.Fatalf("metadata mismatch: %q/%d", got.Name, got.Iters)
	}
	if len(got.Nodes) != len(orig.Nodes) {
		t.Fatalf("nodes %d != %d", len(got.Nodes), len(orig.Nodes))
	}
	for i := range orig.Nodes {
		if got.Nodes[i] != orig.Nodes[i] {
			t.Fatalf("node %d differs: %+v vs %+v", i, got.Nodes[i], orig.Nodes[i])
		}
	}
	if len(got.Arrays) != 2 {
		t.Fatalf("arrays = %d", len(got.Arrays))
	}
	for i := range orig.Arrays {
		oa, ga := orig.Arrays[i], got.Arrays[i]
		if ga.Name != oa.Name || ga.Elem != oa.Elem || ga.Len != oa.Len || ga.Dir != oa.Dir {
			t.Fatalf("array %d metadata differs", i)
		}
		for j := range oa.bits {
			if ga.bits[j] != oa.bits[j] {
				t.Fatalf("array %d element %d differs", i, j)
			}
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadTraceRejectsBadDeps(t *testing.T) {
	orig := roundTripTrace(t)
	orig.Nodes[0].Deps[0] = 5 // forward dependence
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("forward dependence accepted")
	}
}

func TestReadTraceRejectsOutOfRangeAccess(t *testing.T) {
	orig := roundTripTrace(t)
	for i := range orig.Nodes {
		if orig.Nodes[i].Kind == OpLoad {
			orig.Nodes[i].Addr = 1 << 20
			break
		}
	}
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("out-of-range access accepted")
	}
}

func TestReadTraceRejectsUnalignedAccess(t *testing.T) {
	orig := roundTripTrace(t)
	for i := range orig.Nodes {
		if orig.Nodes[i].Kind == OpLoad {
			orig.Nodes[i].Addr = 12 // inside a's second 8-byte element
			break
		}
	}
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("unaligned access accepted")
	}
}

func TestReadTraceRejectsBadIterLabels(t *testing.T) {
	orig := roundTripTrace(t)
	last := len(orig.Nodes) - 1
	orig.Nodes[last].Iter = 3
	orig.Nodes[last-1].Iter = 9 // decreasing afterwards
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("decreasing iteration labels accepted")
	}
}

func TestReadTraceRejectsBadArrayRef(t *testing.T) {
	orig := roundTripTrace(t)
	for i := range orig.Nodes {
		if orig.Nodes[i].Kind.IsMem() {
			orig.Nodes[i].Arr = 9
			break
		}
	}
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("bad array reference accepted")
	}
}
