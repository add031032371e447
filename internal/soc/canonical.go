package soc

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// AppendCanonical appends a deterministic, self-describing byte encoding of
// the design point c to b and returns the extended slice. The encoding is
// the content-addressing substrate for sweep-result caches: two Configs
// produce identical bytes iff every semantically relevant field is equal, so
// a hash of the encoding is a safe cache key for simulation results.
//
// Properties the encoding guarantees:
//
//   - field names and kinds are part of the stream, so renaming, reordering,
//     or retyping a Config field changes the encoding (a stale cache can
//     never alias a new parameter onto an old result);
//   - nested structs (DRAM, CPU, Faults) and pointers (Traffic, Power) are
//     walked recursively, with an explicit presence byte for pointers;
//   - the Obs attachment is excluded: observers change what is recorded,
//     never what is simulated.
//
// Each field is written as its tag ("Name="), its value and a ';': a bool as
// one byte, an integer as 8 big-endian bytes (sign-extended when signed), a
// float as the 8 big-endian bytes of its float64 bits, a pointer as a
// presence byte and, when set, its element; an array is its 8-byte
// big-endian length and its elements, and a nested struct its walked fields.
// The walk runs Config's compiled Program, which is checked when the package
// starts: a field kind the encoding cannot write (string, slice; a func,
// chan or map field already fails when the plan is built) panics there,
// rather than being silently hashed as equal.
func (c Config) AppendCanonical(b []byte) []byte {
	b = append(b, "soc.Config/v1"...)
	return appendCanonical(b, configProgram, RefTo(configProgram, &c))
}

var configProgram = canonicalProgram(PlanOf(reflect.TypeOf(Config{})).Compile())

func appendCanonical(b []byte, p *Program, at Ref) []byte {
	for i := range p.Ops {
		op := &p.Ops[i]
		b = append(b, op.Lit...)
		switch op.Kind {
		case reflect.Bool:
			if at.Bool(op) {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			b = binary.BigEndian.AppendUint64(b, uint64(at.Int(op)))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			b = binary.BigEndian.AppendUint64(b, at.Uint(op))
		case reflect.Float32, reflect.Float64:
			// Bit pattern, not value: distinguishes -0 from +0 and keeps NaNs
			// stable. Validate rejects NaN probabilities anyway.
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(at.Float(op)))
		default: // reflect.Pointer: canonicalProgram admits no other kind
			if e, ok := at.Elem(op); ok {
				b = appendCanonical(append(b, 1), op.Elem, e)
			} else {
				b = append(b, 0)
			}
		}
	}
	return append(b, p.Tail...)
}

// canonicalProgram returns p, after checking that the canonical encoding can
// write every op in it.
func canonicalProgram(p *Program) *Program {
	for _, op := range p.Ops {
		switch op.Kind {
		case reflect.String, reflect.Slice:
			panic(fmt.Sprintf("soc: cannot canonicalize %s field of kind %s", op.Type, op.Kind))
		case reflect.Pointer:
			canonicalProgram(op.Elem)
		}
	}
	return p
}

// A Plan is the walk over one type, computed once per type and shared by
// every walker that must agree on it: the canonical encoding above and the
// durable point record in internal/dse, both through the Program compiled
// from it, and the record's layout fingerprint. It fixes which struct fields
// are visited, in what order, and under what names.
type Plan struct {
	Type reflect.Type
	Kind reflect.Kind
	// Fields lists a struct's walked fields in declaration order: every
	// field except one named Obs (observation is not part of the design
	// point, and holds live callbacks).
	Fields []PlanField
	// Elem is the element plan of a pointer, slice or array.
	Elem *Plan
	// Len is an array's length.
	Len int
}

// A PlanField is one walked struct field.
type PlanField struct {
	Name   string  // the field name
	Prefix string  // Name + "=", the field's tag in the canonical encoding
	Offset uintptr // the field's byte offset within its struct
	*Plan
}

var plans sync.Map // reflect.Type -> *Plan

// PlanOf returns the walk plan of t, building it on first use. It panics on
// a kind no walk can encode (map, interface, func, chan, complex, uintptr,
// unsafe pointer), so a package that builds its plans at start-up fails
// there rather than at the first value it encodes.
func PlanOf(t reflect.Type) *Plan {
	if p, ok := plans.Load(t); ok {
		return p.(*Plan)
	}
	p := &Plan{Type: t, Kind: t.Kind()}
	switch p.Kind {
	case reflect.Bool, reflect.String, reflect.Float32, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
	case reflect.Pointer, reflect.Slice:
		p.Elem = PlanOf(t.Elem())
	case reflect.Array:
		p.Elem, p.Len = PlanOf(t.Elem()), t.Len()
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Name == "Obs" {
				continue
			}
			p.Fields = append(p.Fields, PlanField{Name: f.Name, Prefix: f.Name + "=", Offset: f.Offset, Plan: PlanOf(f.Type)})
		}
	default:
		panic(fmt.Sprintf("soc: cannot walk %s of kind %s", t, p.Kind))
	}
	stored, _ := plans.LoadOrStore(t, p)
	return stored.(*Plan)
}
