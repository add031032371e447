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
// The walk follows Config's Plan and panics on a field kind it does not
// know how to canonicalize (string, slice; a func, chan or map field
// already fails when the plan is built), so adding a non-canonical field to
// Config is caught by the canonical-coverage test rather than silently
// hashed as equal.
func (c Config) AppendCanonical(b []byte) []byte {
	b = append(b, "soc.Config/v1"...)
	return appendCanonicalValue(b, configPlan, reflect.ValueOf(&c).Elem())
}

var configPlan = PlanOf(reflect.TypeOf(Config{}))

func appendCanonicalValue(b []byte, p *Plan, v reflect.Value) []byte {
	switch p.Kind {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.BigEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.BigEndian.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		// Bit pattern, not value: distinguishes -0 from +0 and keeps NaNs
		// stable. Validate rejects NaN probabilities anyway.
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendCanonicalValue(append(b, 1), p.Elem, v.Elem())
	case reflect.Array:
		b = binary.BigEndian.AppendUint64(b, uint64(p.Len))
		for i := 0; i < p.Len; i++ {
			b = appendCanonicalValue(b, p.Elem, v.Index(i))
		}
		return b
	case reflect.Struct:
		for _, f := range p.Fields {
			b = append(b, f.Prefix...)
			b = appendCanonicalValue(b, f.Plan, v.Field(f.Index))
			b = append(b, ';')
		}
		return b
	default:
		panic(fmt.Sprintf("soc: cannot canonicalize %s field of kind %s", p.Type, p.Kind))
	}
}

// A Plan is the reflection walk over one type, computed once per type and
// shared by every walker that must agree on it: the canonical encoding above
// and the durable point record in internal/dse. It fixes which struct
// fields are visited, in what order, and under what names.
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
	Index  int    // the argument to reflect.Value.Field
	Name   string // the field name
	Prefix string // Name + "=", the field's tag in the canonical encoding
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
			p.Fields = append(p.Fields, PlanField{Index: i, Name: f.Name, Prefix: f.Name + "=", Plan: PlanOf(f.Type)})
		}
	default:
		panic(fmt.Sprintf("soc: cannot walk %s of kind %s", t, p.Kind))
	}
	stored, _ := plans.LoadOrStore(t, p)
	return stored.(*Plan)
}
