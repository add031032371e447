package dse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"gem5aladdin/internal/power"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
)

// The reference walkers below are the reflective walks the canonical
// encoding and the point record ran before they were compiled to a
// soc.Program. They follow the same soc.Plan one reflect.Value at a time and
// find each field by name, not by offset, so a compiled program that reads a
// field at the wrong place, with the wrong width or in the wrong order
// disagrees with them.

// appendCanonicalValue is the reference canonical walk of v.
func appendCanonicalValue(b []byte, p *soc.Plan, v reflect.Value) []byte {
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
			b = appendCanonicalValue(b, f.Plan, v.FieldByName(f.Name))
			b = append(b, ';')
		}
		return b
	default:
		panic(fmt.Sprintf("cannot canonicalize %s field of kind %s", p.Type, p.Kind))
	}
}

// canonicalReference is the reference for soc.Config.AppendCanonical.
func canonicalReference(c soc.Config) []byte {
	return appendCanonicalValue([]byte("soc.Config/v1"), soc.PlanOf(reflect.TypeOf(c)), reflect.ValueOf(&c).Elem())
}

// appendRecord is the reference record encoding of v.
func appendRecord(b []byte, p *soc.Plan, v reflect.Value) []byte {
	switch p.Kind {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendRecord(append(b, 1), p.Elem, v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		for i := 0; i < v.Len(); i++ {
			b = appendRecord(b, p.Elem, v.Index(i))
		}
		return b
	case reflect.Array:
		for i := 0; i < p.Len; i++ {
			b = appendRecord(b, p.Elem, v.Index(i))
		}
		return b
	default: // reflect.Struct: soc.PlanOf admits no other kind
		for _, f := range p.Fields {
			b = appendRecord(b, f.Plan, v.FieldByName(f.Name))
		}
		return b
	}
}

// encodePointReference is the reference for EncodePoint.
func encodePointReference(cp *CachedPoint) []byte {
	enc := *cp
	enc.Schema = pointSchema
	b := append([]byte{pointMagic}, pointLayout[:]...)
	return appendRecord(b, pointPlan, reflect.ValueOf(&enc).Elem())
}

// recordReader is the reference record decoder: it fills a zero value,
// checking every length and value against the bytes left and the field it
// fills before allocating.
type recordReader struct{ b []byte }

func (r *recordReader) read(p *soc.Plan, v reflect.Value) error {
	switch p.Kind {
	case reflect.Bool:
		set, err := r.flag()
		v.SetBool(set)
		return err
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, n := binary.Varint(r.b)
		if n <= 0 || v.OverflowInt(x) {
			return fmt.Errorf("bad %s value", p.Type)
		}
		r.b = r.b[n:]
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, n := binary.Uvarint(r.b)
		if n <= 0 || v.OverflowUint(x) {
			return fmt.Errorf("bad %s value", p.Type)
		}
		r.b = r.b[n:]
		v.SetUint(x)
	case reflect.Float32, reflect.Float64:
		if len(r.b) < 8 {
			return errors.New("value overruns the record")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
		if v.OverflowFloat(f) {
			return fmt.Errorf("bad %s value", p.Type)
		}
		r.b = r.b[8:]
		v.SetFloat(f)
	case reflect.String:
		n, err := r.length(0)
		if err != nil {
			return err
		}
		v.SetString(string(r.b[:n]))
		r.b = r.b[n:]
	case reflect.Pointer:
		if set, err := r.flag(); !set {
			return err
		}
		e := reflect.New(p.Elem.Type)
		v.Set(e)
		return r.read(p.Elem, e.Elem())
	case reflect.Slice:
		n, err := r.length(1)
		if err != nil || n == 0 { // 0 is a nil slice
			return err
		}
		m := int(n - 1)
		if m == 0 {
			v.Set(reflect.MakeSlice(p.Type, 0, 0)) // empty, not nil
			return nil
		}
		v.Grow(m)
		v.SetLen(m)
		for i := 0; i < m; i++ {
			if err := r.read(p.Elem, v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Array:
		for i := 0; i < p.Len; i++ {
			if err := r.read(p.Elem, v.Index(i)); err != nil {
				return err
			}
		}
	default: // reflect.Struct
		for _, f := range p.Fields {
			if err := r.read(f.Plan, v.FieldByName(f.Name)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *recordReader) flag() (bool, error) {
	if len(r.b) == 0 || r.b[0] > 1 {
		return false, errors.New("bad flag byte")
	}
	set := r.b[0] == 1
	r.b = r.b[1:]
	return set, nil
}

func (r *recordReader) length(bias uint64) (uint64, error) {
	x, n := binary.Uvarint(r.b)
	if n <= 0 || x > uint64(len(r.b)-n)+bias {
		return 0, errors.New("value overruns the record")
	}
	r.b = r.b[n:]
	return x, nil
}

// decodePointReference is the reference for DecodePoint.
func decodePointReference(data []byte) (*CachedPoint, bool, error) {
	body, ok, err := pointBody(data)
	if !ok {
		return nil, false, err
	}
	cp := new(CachedPoint)
	r := recordReader{body}
	err = r.read(pointPlan, reflect.ValueOf(cp).Elem())
	return checkPoint(cp, r.b, err)
}

// sameVerdict reports whether two decodes of one record agree: both a point,
// with the same fields and floats compared by their bits, both a miss or
// both an error. Error texts may differ.
func sameVerdict(cp1 *CachedPoint, ok1 bool, err1 error, cp2 *CachedPoint, ok2 bool, err2 error) bool {
	if ok1 != ok2 || (err1 == nil) != (err2 == nil) || (cp1 == nil) != (cp2 == nil) {
		return false
	}
	return cp1 == nil || sameBits(reflect.ValueOf(cp1).Elem(), reflect.ValueOf(cp2).Elem())
}

// everyKind holds a field of every kind soc.PlanOf admits, alone and nested
// in arrays, pointers, slices and structs, named types among them.
type everyKind struct {
	B     bool
	S     string
	I     int
	I8    int8
	I16   int16
	I32   int32
	I64   int64
	U     uint
	U8    uint8
	U16   uint16
	U32   uint32
	U64   uint64
	F32   float32
	F64   float64
	Tick  sim.Tick
	P     *int16
	Sl    []int8
	A     [3]uint16
	A0    [0]int64
	E     struct{}
	In    kindInner
	PIn   *kindInner
	SlIn  []kindInner
	AIn   [2]kindInner
	SlP   []*uint32
	PA    *[2]float32
	SlSl  [][]string
	Obs   int // never walked
	Final bool
}

type kindInner struct {
	F32 float32
	S   string
	I8  int8
	P   *bool
	U16 [2]uint16
}

// TestCompiledWalksMatchReferences holds the compiled canonical walk and
// the compiled record codec to the reflective references above: the same
// canonical bytes for every config a default search space can produce and
// every config one leaf away from the default, the same record bytes and
// decoded values for the golden records and for a value of every kind, and
// the same verdict for every truncation and byte change of such a record.
func TestCompiledWalksMatchReferences(t *testing.T) {
	t.Run("canonical", func(t *testing.T) {
		check := func(name string, c soc.Config) {
			t.Helper()
			if got, want := c.AppendCanonical(nil), canonicalReference(c); string(got) != string(want) {
				t.Fatalf("%s: AppendCanonical differs from the reference:\n got %x\nwant %x", name, got, want)
			}
		}
		for _, mem := range []soc.MemKind{soc.DMA, soc.Cache} {
			sp := SearchSpace{Base: memConfig(mem), Axes: append(DefaultSearchAxes(mem), FabricAxis())}
			rng := searchRNG{state: uint64(mem) + 1}
			for i := 0; i < 2000; i++ {
				check(fmt.Sprintf("%v rank", mem), sp.Config(sp.Unrank(rng.next()%sp.Size())))
			}
		}
		base := soc.DefaultConfig()
		leaves := scalarLeaves(reflect.TypeOf(base), nil)
		if len(leaves) < 30 {
			t.Fatalf("leaf enumeration looks broken: only %d leaves", len(leaves))
		}
		for _, idx := range leaves {
			mut := base
			mutateLeaf(reflect.ValueOf(&mut).Elem().FieldByIndex(idx))
			check(fmt.Sprint("leaf ", idx), mut)
		}
		both := base
		both.Traffic = &soc.TrafficConfig{Period: 100 * sim.Nanosecond, Bytes: 64}
		both.Power = power.Default()
		check("traffic and power set", both)
		check("traffic and power nil", base)
		var filled soc.Config
		n := 0
		fillLeaves(reflect.ValueOf(&filled).Elem(), &n)
		check("every leaf set", filled)
	})

	t.Run("point records", func(t *testing.T) {
		// TestPointRecordGolden's records.
		cps := stencilPoints(t)
		for _, kind := range []string{soc.AbortStall, soc.AbortSanitize, soc.AbortFault} {
			cps = append(cps, &CachedPoint{Aborted: true, Kind: kind, Err: "soc: run aborted: " + kind, Attempts: 2})
		}
		for _, p := range everyFieldPoints(t) {
			cps = append(cps, p.cp)
		}
		cps = append(cps, &CachedPoint{Result: &soc.RunResult{
			AvgPowerW: math.NaN(), EDPJs: math.Copysign(0, -1), TransferJ: math.Inf(1), AreaMM2: math.Inf(-1),
		}})
		for i, cp := range cps {
			data := EncodePoint(cp)
			if want := encodePointReference(cp); string(data) != string(want) {
				t.Fatalf("point %d: EncodePoint differs from the reference:\n got %x\nwant %x", i, data, want)
			}
			got, ok, err := DecodePoint(data)
			want, wok, werr := decodePointReference(data)
			if !ok || err != nil || !sameVerdict(got, ok, err, want, wok, werr) {
				t.Fatalf("point %d: DecodePoint (ok=%v err=%v) differs from the reference (ok=%v err=%v)", i, ok, err, wok, werr)
			}
		}
	})

	t.Run("every kind", func(t *testing.T) {
		plan := soc.PlanOf(reflect.TypeOf(everyKind{}))
		prog := plan.Compile()
		roundTrip := func(name string, v *everyKind) {
			t.Helper()
			data := appendFields(nil, prog, soc.RefTo(prog, v))
			if want := appendRecord(nil, plan, reflect.ValueOf(v).Elem()); string(data) != string(want) {
				t.Fatalf("%s: record differs from the reference:\n got %x\nwant %x", name, data, want)
			}
			var got everyKind
			if rest, err := decodeFields(data, prog, soc.RefTo(prog, &got)); err != nil || len(rest) > 0 {
				t.Fatalf("%s: decoding left %d bytes: %v", name, len(rest), err)
			}
			want := *v
			want.Obs = 0
			if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
				t.Fatalf("%s: decoded value differs:\n got %+v\nwant %+v", name, got, want)
			}
			// Every truncation and every byte change of the record must get
			// the reference's verdict and, when both accept it, its value.
			for i := 0; i <= len(data); i++ {
				for _, c := range []byte{0, 1, 2, 0x7f, 0x80, 0xff} {
					in := append([]byte{}, data[:i]...)
					if i < len(data) {
						in = append(append(in, c), data[i+1:]...)
					}
					var got, want everyKind
					rest, err := decodeFields(in, prog, soc.RefTo(prog, &got))
					r := recordReader{in}
					werr := r.read(plan, reflect.ValueOf(&want).Elem())
					if (err == nil) != (werr == nil) || (err == nil && (len(rest) != len(r.b) || !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)))) {
						t.Fatalf("%s, byte %d set to %#x: compiled err=%v, reference err=%v", name, i, c, err, werr)
					}
				}
			}
		}
		var v everyKind
		n := 0
		fillLeaves(reflect.ValueOf(&v).Elem(), &n)
		v.F32 = math.MaxFloat32 // its float64 bits, plus one, overflow a float32
		roundTrip("every leaf set", &v)
		roundTrip("zero", &everyKind{})
		for _, idx := range refLeaves(reflect.TypeOf(v), nil) {
			for _, variant := range []string{"nil", "empty"} {
				w := v
				f := reflect.ValueOf(&w).Elem().FieldByIndex(idx)
				switch {
				case variant == "nil":
					f.Set(reflect.Zero(f.Type()))
				case f.Kind() == reflect.Slice:
					f.Set(reflect.MakeSlice(f.Type(), 0, 0))
				default:
					f.Set(reflect.New(f.Type().Elem()))
				}
				roundTrip(fmt.Sprintf("%v %s", idx, variant), &w)
			}
		}
	})
}

// scalarLeaves lists the field index paths of every leaf under struct type
// t that soc's TestCanonicalCoversEveryField mutates: scalars, pointers and
// arrays, through nested structs, except Obs.
func scalarLeaves(t reflect.Type, index []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Name == "Obs" {
			continue
		}
		idx := append(append([]int{}, index...), i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, scalarLeaves(f.Type, idx)...)
		} else {
			out = append(out, idx)
		}
	}
	return out
}

// mutateLeaf changes v as soc's TestCanonicalCoversEveryField does: a bool
// flips, a number grows by one, a pointer toggles between nil and a zero
// value, and an array changes its first element.
func mutateLeaf(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.Set(reflect.Zero(v.Type()))
		}
	case reflect.Array:
		if v.Len() > 0 {
			mutateLeaf(v.Index(0))
		}
	}
}
