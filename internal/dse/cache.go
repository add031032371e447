package dse

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"time"

	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
)

// pointSchema versions what a stored CachedPoint means. The record layout
// is versioned on its own, by pointLayout, so bump pointSchema only when
// records of an unchanged layout must no longer be trusted (say, a model
// change that makes stored results stale). Schema 1 was a JSON record.
// Records of another schema or layout decode as cache misses, never as
// errors.
const pointSchema = 2

// CachedPoint is the durable outcome of one design point — either a
// completed simulation result or a classified terminal failure. It is what
// the result store persists under the point's PointKey, so a restarted
// service replays failures as cheaply as successes instead of re-simulating
// known-poisoned configs.
type CachedPoint struct {
	Schema int
	// Aborted marks a robustness-layer abort (soc.ErrAborted): Kind holds
	// the soc.AbortKind label, Err the abort message, Attempts how many
	// runs the retry policy spent. Result is nil.
	Aborted  bool
	Kind     string
	Err      string
	Attempts int
	// Result is the completed simulation result; its Config.Obs is always
	// nil (observers don't serialize and are not part of the point's
	// identity).
	Result *soc.RunResult
}

// A point record is
//
//	[pointMagic][pointLayout, 8 bytes][body]
//
// and the body walks CachedPoint field by field along its soc.Plan, so
// Config.Obs is never written:
//
//   - a bool is one byte, 0 or 1;
//   - an integer is a varint, zig-zag encoded when signed;
//   - a float is its float64 bits, 8 bytes little-endian;
//   - a string is a uvarint length and its bytes;
//   - a slice is a uvarint of its length plus one (0 for nil, so nil stays
//     distinct from empty) and its elements;
//   - a pointer is a presence byte, 0 or 1, and its element when 1;
//   - an array is its elements, and a struct its walked fields in order.
//
// Field names appear only in pointLayout, a hash of the walk's field names,
// kinds and array lengths, so a record written under any other layout
// decodes as a miss, as does a JSON record of schema 1 (it opens with '{').
const pointMagic = 0xA7

var (
	pointPlan   = soc.PlanOf(reflect.TypeOf(CachedPoint{}))
	pointLayout = layoutFingerprint(pointPlan)
)

// layoutFingerprint hashes the field names, kinds and array lengths of the
// walk p describes.
func layoutFingerprint(p *soc.Plan) [8]byte {
	sum := sha256.Sum256(appendLayout(nil, p))
	return [8]byte(sum[:8])
}

// appendLayout describes p's walk, e.g. "struct{Schema int;Aborted bool;...}".
func appendLayout(b []byte, p *soc.Plan) []byte {
	b = append(b, p.Kind.String()...)
	switch p.Kind {
	case reflect.Array:
		b = strconv.AppendInt(append(b, '['), int64(p.Len), 10)
		return appendLayout(append(b, ']'), p.Elem)
	case reflect.Pointer, reflect.Slice:
		return appendLayout(append(b, ' '), p.Elem)
	case reflect.Struct:
		b = append(b, '{')
		for _, f := range p.Fields {
			b = appendLayout(append(append(b, f.Name...), ' '), f.Plan)
			b = append(b, ';')
		}
		return append(b, '}')
	}
	return b
}

// EncodePoint serializes a cached point. The result's observer attachment is
// not part of the record, and the caller's RunResult is not mutated. The
// error is always nil.
func EncodePoint(cp *CachedPoint) ([]byte, error) {
	enc := *cp
	enc.Schema = pointSchema
	b := append(make([]byte, 0, 512), pointMagic)
	b = append(b, pointLayout[:]...)
	return appendRecord(b, pointPlan, reflect.ValueOf(&enc).Elem()), nil
}

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
			b = appendRecord(b, f.Plan, v.Field(f.Index))
		}
		return b
	}
}

// DecodePoint parses an encoded point. ok is false (with a nil error) when
// the record was written under a different schema or layout. A record that
// does not hold exactly one outcome — a result, or an abort classified by a
// soc.Abort* label — is an error.
func DecodePoint(data []byte) (*CachedPoint, bool, error) {
	switch {
	case len(data) > 0 && data[0] == '{': // a JSON record of schema 1
		return nil, false, nil
	case len(data) < 1+len(pointLayout) || data[0] != pointMagic:
		return nil, false, errors.New("dse: decoding cached point: not a point record")
	case [len(pointLayout)]byte(data[1:]) != pointLayout:
		return nil, false, nil
	}
	var cp CachedPoint
	r := recordReader{data[1+len(pointLayout):]}
	err := r.read(pointPlan, reflect.ValueOf(&cp).Elem())
	if err == nil && len(r.b) > 0 {
		err = errors.New("trailing bytes")
	}
	if err != nil {
		return nil, false, fmt.Errorf("dse: decoding cached point: %w", err)
	}
	if cp.Schema != pointSchema {
		return nil, false, nil
	}
	switch {
	case cp.Result != nil && !cp.Aborted:
	case cp.Result == nil && cp.Aborted &&
		(cp.Kind == soc.AbortStall || cp.Kind == soc.AbortSanitize || cp.Kind == soc.AbortFault):
	default:
		return nil, false, errors.New("dse: decoding cached point: want exactly one of a result or a classified abort")
	}
	return &cp, true, nil
}

var errTruncated = errors.New("value overruns the record")

// recordReader decodes a point record body into a zero value. It checks
// every length and value against the bytes left and the field it fills
// before allocating.
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
			return errTruncated
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
		v.Grow(m) // unlike MakeSlice, allocates only the elements
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
			if err := r.read(f.Plan, v.Field(f.Index)); err != nil {
				return err
			}
		}
	}
	return nil
}

// flag reads a bool or a pointer's presence byte.
func (r *recordReader) flag() (bool, error) {
	if len(r.b) == 0 || r.b[0] > 1 {
		return false, errors.New("bad flag byte")
	}
	set := r.b[0] == 1
	r.b = r.b[1:]
	return set, nil
}

// length reads a string or slice length, stored plus bias. Every element
// takes at least one byte, so a length beyond the bytes left is an error.
func (r *recordReader) length(bias uint64) (uint64, error) {
	x, n := binary.Uvarint(r.b)
	if n <= 0 || x > uint64(len(r.b)-n)+bias {
		return 0, errTruncated
	}
	r.b = r.b[n:]
	return x, nil
}

// StoreCache adapts a result store to design-point lookups for one kernel:
// points are keyed by PointKey(Kernel, cfg), so the same store directory can
// hold points from many kernels (and the service's job manifests) without
// collisions.
type StoreCache struct {
	Kernel string
	Store  *store.Store
}

// Get looks up the cached outcome for cfg. A missing key, a schema mismatch,
// or an undecodable record all report ok=false; only store I/O surfaces as
// an error.
func (c *StoreCache) Get(cfg soc.Config) (*CachedPoint, bool, error) {
	return loadPoint(c.Store, PointKey(c.Kernel, cfg))
}

// Put persists the outcome for cfg, superseding any previous record.
func (c *StoreCache) Put(cfg soc.Config, cp *CachedPoint) error {
	return storePoint(c.Store, PointKey(c.Kernel, cfg), cp)
}

// loadPoint reads the point record stored under key, as StoreCache.Get.
func loadPoint(st *store.Store, key string) (*CachedPoint, bool, error) {
	data, ok, err := st.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	cp, ok, err := DecodePoint(data)
	if err != nil || !ok {
		// A corrupt or foreign-schema record is a miss: the point will be
		// re-simulated and the record overwritten.
		return nil, false, nil
	}
	return cp, true, nil
}

// storePoint persists a point record under key, superseding any previous one.
func storePoint(st *store.Store, key string, cp *CachedPoint) error {
	data, err := EncodePoint(cp)
	if err != nil {
		return err
	}
	return st.Put(key, data)
}

// RetryPolicy bounds how a sweep retries an aborted design point before
// recording it as failed. Only fault-injection aborts are retried: the
// injector's give-up path is the operational analogue of a transient error
// (and the retry budget is how a service would ride out one). Stalls and
// sanitizer violations are deterministic properties of the config and fail
// immediately.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt; 0 disables
	// retrying.
	Max int
	// Backoff is the delay before the first retry; each further retry
	// doubles it, capped at MaxBackoff. 0 retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means 1s.
	MaxBackoff time.Duration
}

// Retryable reports whether an abort of the given kind is worth another
// attempt under this policy.
func (p RetryPolicy) Retryable(kind string) bool {
	return p.Max > 0 && kind == soc.AbortFault
}

// Delay returns the backoff before retry number n (1-based).
func (p RetryPolicy) Delay(n int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = time.Second
	}
	d := p.Backoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}
