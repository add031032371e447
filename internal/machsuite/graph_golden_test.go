package machsuite

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"gem5aladdin/internal/ddg"
)

// graphGolden is the digest of every kernel's trace and DDDG in
// TestGraphGolden. It was computed before the graph was assembled in one
// pass over a flat predecessor buffer and before the trace builder kept its
// nodes in chunks, and must never be edited: a mismatch means a trace or a
// graph moved.
const graphGolden = "a404464f17fb83fb210f65b23f98a44b6958f01de179acea00fa5ac68bc767af"

// graphHash folds words into a SHA-256 in little-endian order.
type graphHash struct {
	h   hash.Hash
	buf []byte
}

func (g *graphHash) word(v uint64) { g.buf = binary.LittleEndian.AppendUint64(g.buf, v) }

func (g *graphHash) int32s(s []int32) {
	g.word(uint64(len(s)))
	for _, v := range s {
		g.word(uint64(uint32(v)))
	}
}

func (g *graphHash) flush() {
	g.h.Write(g.buf)
	g.buf = g.buf[:0]
}

// TestGraphGolden pins every MachSuite kernel's trace and DDDG bit for bit:
// each trace node (kind, iteration, register deps, array, address, size)
// and the graph's Bases, Prelude, IterRange, InDeg, SuccIdx, Succ and
// CritPath.
func TestGraphGolden(t *testing.T) {
	g := graphHash{h: sha256.New()}
	for _, k := range All() {
		tr, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		gr := ddg.Build(tr)
		g.h.Write([]byte(k.Name))
		g.word(uint64(len(tr.Nodes)))
		for i := range tr.Nodes {
			nd := &tr.Nodes[i]
			g.word(uint64(nd.Kind))
			g.word(uint64(uint32(nd.Iter)))
			g.int32s(nd.Deps[:])
			g.word(uint64(uint16(nd.Arr)))
			g.word(uint64(nd.Addr))
			g.word(uint64(nd.Size))
			if len(g.buf) >= 1<<16 {
				g.flush()
			}
		}
		g.word(uint64(len(gr.Bases)))
		for _, b := range gr.Bases {
			g.word(b)
		}
		g.word(uint64(uint32(gr.Prelude.Start)))
		g.word(uint64(uint32(gr.Prelude.End)))
		g.word(uint64(len(gr.IterRange)))
		for _, r := range gr.IterRange {
			g.word(uint64(uint32(r.Start)))
			g.word(uint64(uint32(r.End)))
		}
		g.int32s(gr.InDeg)
		g.int32s(gr.SuccIdx)
		g.int32s(gr.Succ)
		g.word(uint64(gr.CritPath))
		g.flush()
	}
	if got := hex.EncodeToString(g.h.Sum(nil)); got != graphGolden {
		t.Fatalf("graph digest %s, want %s", got, graphGolden)
	}
}
