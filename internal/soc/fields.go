package soc

import (
	"fmt"
	"reflect"
	"unsafe"
)

// This file is the only one that touches memory through unsafe. A Ref's
// accessors read and write the value an Op describes through the Go type its
// Kind and Bits name, never a wider or narrower one. Pointer and slice
// targets are allocated through reflect and stored through a typed pointer
// store or reflect itself, so the garbage collector sees every pointer
// written; no pointer is ever held or stored as a uintptr.

// A Ref addresses a value that a Program walks: the value itself, or a
// pointer's or slice element's target below it.
type Ref struct{ p unsafe.Pointer }

// RefTo returns the Ref of *v. It panics unless prog is the program of T.
func RefTo[T any](prog *Program, v *T) Ref {
	if prog.Type != reflect.TypeFor[T]() {
		panic(fmt.Sprintf("soc: a Ref to %s for the program of %s", reflect.TypeFor[T](), prog.Type))
	}
	return Ref{unsafe.Pointer(v)}
}

func (r Ref) at(op *Op) unsafe.Pointer { return unsafe.Add(r.p, op.Off) }

// Bool reads op's bool.
func (r Ref) Bool(op *Op) bool { return *(*bool)(r.at(op)) }

// SetBool writes op's bool.
func (r Ref) SetBool(op *Op, x bool) { *(*bool)(r.at(op)) = x }

// Int reads op's signed integer.
func (r Ref) Int(op *Op) int64 {
	p := r.at(op)
	switch op.Kind {
	case reflect.Int8:
		return int64(*(*int8)(p))
	case reflect.Int16:
		return int64(*(*int16)(p))
	case reflect.Int32:
		return int64(*(*int32)(p))
	case reflect.Int64:
		return *(*int64)(p)
	}
	return int64(*(*int)(p))
}

// SetInt writes x, which must fit op's Bits, to op's signed integer.
func (r Ref) SetInt(op *Op, x int64) {
	p := r.at(op)
	switch op.Kind {
	case reflect.Int8:
		*(*int8)(p) = int8(x)
	case reflect.Int16:
		*(*int16)(p) = int16(x)
	case reflect.Int32:
		*(*int32)(p) = int32(x)
	case reflect.Int64:
		*(*int64)(p) = x
	default:
		*(*int)(p) = int(x)
	}
}

// Uint reads op's unsigned integer.
func (r Ref) Uint(op *Op) uint64 {
	p := r.at(op)
	switch op.Kind {
	case reflect.Uint8:
		return uint64(*(*uint8)(p))
	case reflect.Uint16:
		return uint64(*(*uint16)(p))
	case reflect.Uint32:
		return uint64(*(*uint32)(p))
	case reflect.Uint64:
		return *(*uint64)(p)
	}
	return uint64(*(*uint)(p))
}

// SetUint writes x, which must fit op's Bits, to op's unsigned integer.
func (r Ref) SetUint(op *Op, x uint64) {
	p := r.at(op)
	switch op.Kind {
	case reflect.Uint8:
		*(*uint8)(p) = uint8(x)
	case reflect.Uint16:
		*(*uint16)(p) = uint16(x)
	case reflect.Uint32:
		*(*uint32)(p) = uint32(x)
	case reflect.Uint64:
		*(*uint64)(p) = x
	default:
		*(*uint)(p) = uint(x)
	}
}

// Float reads op's float.
func (r Ref) Float(op *Op) float64 {
	if op.Kind == reflect.Float32 {
		return float64(*(*float32)(r.at(op)))
	}
	return *(*float64)(r.at(op))
}

// SetFloat writes x, which must fit op's Bits, to op's float.
func (r Ref) SetFloat(op *Op, x float64) {
	if op.Kind == reflect.Float32 {
		*(*float32)(r.at(op)) = float32(x)
	} else {
		*(*float64)(r.at(op)) = x
	}
}

// String reads op's string.
func (r Ref) String(op *Op) string { return *(*string)(r.at(op)) }

// SetString writes op's string.
func (r Ref) SetString(op *Op, s string) { *(*string)(r.at(op)) = s }

// Elem returns the target of op's pointer, or false if it is nil.
func (r Ref) Elem(op *Op) (Ref, bool) {
	e := *(*unsafe.Pointer)(r.at(op))
	return Ref{e}, e != nil
}

// NewElem points op's pointer at a new zero value and returns it.
func (r Ref) NewElem(op *Op) Ref {
	e := reflect.New(op.Elem.Type).UnsafePointer()
	*(*unsafe.Pointer)(r.at(op)) = e
	return Ref{e}
}

// sliceHeader is the layout of every slice. It is only read through: slices
// are written by reflect.
type sliceHeader struct {
	data unsafe.Pointer
	len  int
	_    int // the capacity
}

// Slice returns the first element and the length of op's slice, or false if
// the slice is nil.
func (r Ref) Slice(op *Op) (Ref, int, bool) {
	s := (*sliceHeader)(r.at(op))
	return Ref{s.data}, s.len, s.data != nil
}

// MakeSlice sets op's nil slice to n zero elements, an empty non-nil slice
// when n is 0, and returns the first element.
func (r Ref) MakeSlice(op *Op, n int) Ref {
	v := reflect.NewAt(op.Type, r.at(op)).Elem()
	if n == 0 {
		v.Set(reflect.MakeSlice(op.Type, 0, 0))
	} else {
		v.Grow(n) // unlike MakeSlice, allocates only the elements
		v.SetLen(n)
	}
	return Ref{(*sliceHeader)(r.at(op)).data}
}

// Index returns element i of the slice whose first element is r and whose
// element program is elem.
func (r Ref) Index(elem *Program, i int) Ref {
	return Ref{unsafe.Add(r.p, uintptr(i)*elem.size)}
}
