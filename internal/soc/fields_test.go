package soc

import (
	"math"
	"reflect"
	"testing"
)

// guarded puts a guard byte after every number: an accessor that read or
// wrote a wider type than its field would take in or change the guard. A
// walk in field order hides a too-wide write, because it writes the next
// field again afterwards, so the accessors are checked on their own.
type guarded struct {
	I8  int8
	G1  uint8
	I16 int16
	G2  uint8
	I32 int32
	G3  uint8
	I64 int64
	G4  uint8
	I   int
	G5  uint8
	U8  uint8
	G6  uint8
	U16 uint16
	G7  uint8
	U32 uint32
	G8  uint8
	U64 uint64
	G9  uint8
	U   uint
	G10 uint8
	F32 float32
	G11 uint8
	F64 float64
	G12 uint8
	B   bool
	G13 uint8
}

func TestRefAccessorsKeepToTheirField(t *testing.T) {
	prog := PlanOf(reflect.TypeOf(guarded{})).Compile()
	var g guarded
	at := RefTo(prog, &g)
	v := reflect.ValueOf(&g).Elem()
	setGuards := func() {
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Name[0] == 'G' {
				v.Field(i).SetUint(0xAA)
			}
		}
	}
	checkGuards := func(what string) {
		t.Helper()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Name[0] == 'G' && v.Field(i).Uint() != 0xAA {
				t.Errorf("%s changed guard %s", what, f.Name)
			}
		}
	}
	for i := range prog.Ops {
		op := &prog.Ops[i]
		f := v.FieldByIndex([]int{i})
		if v.Type().Field(i).Name[0] == 'G' {
			continue
		}
		setGuards()
		switch op.Kind {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			x := int64(-1) << (op.Bits - 1) // the most negative value of the width
			at.SetInt(op, x)
			if f.Int() != x || at.Int(op) != x {
				t.Errorf("%s: wrote %d, field holds %d, Int reads %d", op.Type, x, f.Int(), at.Int(op))
			}
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			x := uint64(math.MaxUint64) >> (64 - op.Bits)
			at.SetUint(op, x)
			if f.Uint() != x || at.Uint(op) != x {
				t.Errorf("%s: wrote %d, field holds %d, Uint reads %d", op.Type, x, f.Uint(), at.Uint(op))
			}
		case reflect.Float32, reflect.Float64:
			x := -math.MaxFloat32
			at.SetFloat(op, x)
			if f.Float() != x || at.Float(op) != x {
				t.Errorf("%s: wrote %g, field holds %g, Float reads %g", op.Type, x, f.Float(), at.Float(op))
			}
		case reflect.Bool:
			at.SetBool(op, true)
			if !f.Bool() || !at.Bool(op) {
				t.Errorf("bool: wrote true, field holds %v, Bool reads %v", f.Bool(), at.Bool(op))
			}
		}
		checkGuards(op.Type.String())
	}
}
