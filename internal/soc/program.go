package soc

import (
	"encoding/binary"
	"reflect"
)

// A Program is a Plan compiled to a flat list of leaf operations, one per
// bool, number, string, pointer or slice the walk visits, each at its byte
// offset from the walked value's base. Nested structs and arrays are
// inlined; only a pointer's or a slice's element has a program of its own.
// The canonical encoding and the durable point record in internal/dse run
// from programs, through a Ref, so neither walks a reflect.Value per field.
type Program struct {
	Type reflect.Type
	Ops  []Op
	// Tail is the canonical bytes after the last op, such as the ';' that
	// closes the last field.
	Tail string
	size uintptr // Type.Size(), the stride of a slice of Type
}

// An Op is one leaf of a Program.
type Op struct {
	// Kind is a bool, integer, float, string, pointer or slice kind; with
	// Bits, a number's width, it fixes the Go type the value is read and
	// written as.
	Kind reflect.Kind
	Bits int
	Off  uintptr // the value's byte offset from the program's base
	// Lit is the canonical bytes before the value: the field tags that
	// lead to it, the ';' that closes the fields before it and the lengths
	// of the arrays it opens.
	Lit string
	// Type is the value's type, and Elem, for a pointer or a slice, the
	// program of its element.
	Type reflect.Type
	Elem *Program
}

// Compile returns the program of p's walk.
func (p *Plan) Compile() *Program {
	prog := &Program{Type: p.Type, size: p.Type.Size()}
	prog.Tail = prog.inline(p, 0, "")
	return prog
}

// inline appends the ops of a value walked by p at offset off, the first of
// them after the pending canonical bytes lit, and returns the canonical
// bytes pending after the value.
func (prog *Program) inline(p *Plan, off uintptr, lit string) string {
	switch p.Kind {
	case reflect.Array:
		lit += string(binary.BigEndian.AppendUint64(nil, uint64(p.Len)))
		for i := 0; i < p.Len; i++ {
			lit = prog.inline(p.Elem, off+uintptr(i)*p.Elem.Type.Size(), lit)
		}
		return lit
	case reflect.Struct:
		for _, f := range p.Fields {
			lit = prog.inline(f.Plan, off+f.Offset, lit+f.Prefix) + ";"
		}
		return lit
	}
	op := Op{Kind: p.Kind, Off: off, Lit: lit, Type: p.Type}
	switch p.Kind {
	case reflect.Pointer, reflect.Slice:
		op.Elem = p.Elem.Compile()
	case reflect.Bool, reflect.String:
	default:
		op.Bits = p.Type.Bits()
	}
	prog.Ops = append(prog.Ops, op)
	return ""
}
