// Trace serialization: Aladdin's workflow profiles a program once and
// re-schedules the recorded trace across many design points, possibly on
// other machines. WriteTo/ReadTrace give the same capability here using
// encoding/gob, including the arrays' concrete contents so functional
// state survives the round trip.

package trace

import (
	"encoding/gob"
	"fmt"
	"io"
)

// wireTrace is the exported-field image of a Trace for gob.
type wireTrace struct {
	Version int
	Name    string
	Nodes   []Node
	Iters   int
	Arrays  []wireArray
}

type wireArray struct {
	Name string
	Elem ElemKind
	Len  int
	Dir  Direction
	Bits []uint64
}

// serializationVersion guards against decoding traces from incompatible
// builds.
const serializationVersion = 1

// Encode serializes the trace.
func (t *Trace) Encode(w io.Writer) error {
	wt := wireTrace{
		Version: serializationVersion,
		Name:    t.Name,
		Nodes:   t.Nodes,
		Iters:   t.Iters,
	}
	for _, a := range t.Arrays {
		wt.Arrays = append(wt.Arrays, wireArray{
			Name: a.Name, Elem: a.Elem, Len: a.Len, Dir: a.Dir, Bits: a.bits,
		})
	}
	if err := gob.NewEncoder(w).Encode(wt); err != nil {
		return fmt.Errorf("trace: encode %q: %w", t.Name, err)
	}
	return nil
}

// ReadTrace deserializes a trace written by Encode and revalidates its
// structural invariants (dependences strictly backwards, addresses in
// range and element-aligned) so a corrupted or hand-edited file cannot
// crash the scheduler.
func ReadTrace(r io.Reader) (*Trace, error) {
	var wt wireTrace
	if err := gob.NewDecoder(r).Decode(&wt); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if wt.Version != serializationVersion {
		return nil, fmt.Errorf("trace: version %d, want %d", wt.Version, serializationVersion)
	}
	t := &Trace{Name: wt.Name, Nodes: wt.Nodes, Iters: wt.Iters}
	for i, wa := range wt.Arrays {
		if wa.Len <= 0 || len(wa.Bits) != wa.Len {
			return nil, fmt.Errorf("trace: array %d (%q) has inconsistent length", i, wa.Name)
		}
		t.Arrays = append(t.Arrays, &Array{
			ID: int16(i), Name: wa.Name, Elem: wa.Elem, Len: wa.Len,
			Dir: wa.Dir, bits: wa.Bits,
		})
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// validate re-checks the invariants the builder enforces at record time.
func (t *Trace) validate() error {
	lastIter := int32(-1)
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Kind >= opKindCount {
			return fmt.Errorf("trace: node %d has unknown kind %d", i, n.Kind)
		}
		for _, d := range n.Deps {
			if d != NoDep && (d < 0 || d >= int32(i)) {
				return fmt.Errorf("trace: node %d dependence %d not strictly backwards", i, d)
			}
		}
		if n.Iter < lastIter {
			return fmt.Errorf("trace: node %d iteration label decreases", i)
		}
		lastIter = n.Iter
		if int(lastIter) >= t.Iters {
			return fmt.Errorf("trace: node %d iteration %d out of range (%d)", i, n.Iter, t.Iters)
		}
		if n.Kind.IsMem() {
			if int(n.Arr) < 0 || int(n.Arr) >= len(t.Arrays) {
				return fmt.Errorf("trace: node %d references array %d of %d", i, n.Arr, len(t.Arrays))
			}
			a := t.Arrays[n.Arr]
			if uint64(n.Addr)+uint64(n.Size) > uint64(a.Bytes()) {
				return fmt.Errorf("trace: node %d accesses [%d,%d) beyond array %q (%d bytes)",
					i, n.Addr, n.Addr+uint32(n.Size), a.Name, a.Bytes())
			}
			if n.Addr%a.Elem.Size() != 0 {
				return fmt.Errorf("trace: node %d accesses byte %d of array %q, not a multiple of its %d-byte elements",
					i, n.Addr, a.Name, a.Elem.Size())
			}
		}
	}
	return nil
}
