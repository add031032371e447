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
// The codec runs the plan's compiled soc.Program: one op per leaf, nested
// structs and arrays inlined, so a record is read and written without a
// reflect.Value per field.
const pointMagic = 0xA7

var (
	pointPlan    = soc.PlanOf(reflect.TypeOf(CachedPoint{}))
	pointProgram = pointPlan.Compile()
	pointLayout  = layoutFingerprint(pointPlan)
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
// not part of the record, and the caller's point is not mutated.
func EncodePoint(cp *CachedPoint) []byte {
	enc := *cp
	enc.Schema = pointSchema
	b := append(make([]byte, 0, 512), pointMagic)
	b = append(b, pointLayout[:]...)
	return appendFields(b, pointProgram, soc.RefTo(pointProgram, &enc))
}

// appendFields appends the record body of the value at at, walked by p.
func appendFields(b []byte, p *soc.Program, at soc.Ref) []byte {
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Kind {
		case reflect.Bool:
			b = append(b, flagByte(at.Bool(op)))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			b = binary.AppendVarint(b, at.Int(op))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			b = binary.AppendUvarint(b, at.Uint(op))
		case reflect.Float32, reflect.Float64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(at.Float(op)))
		case reflect.String:
			s := at.String(op)
			b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
		case reflect.Pointer:
			e, ok := at.Elem(op)
			b = append(b, flagByte(ok))
			if ok {
				b = appendFields(b, op.Elem, e)
			}
		default: // reflect.Slice: a program holds no other kind
			e, n, ok := at.Slice(op)
			if !ok {
				b = append(b, 0)
				continue
			}
			b = binary.AppendUvarint(b, uint64(n)+1)
			for i := 0; i < n; i++ {
				b = appendFields(b, op.Elem, e.Index(op.Elem, i))
			}
		}
	}
	return b
}

func flagByte(set bool) byte {
	if set {
		return 1
	}
	return 0
}

// DecodePoint parses an encoded point. ok is false (with a nil error) when
// the record was written under a different schema or layout. A record that
// does not hold exactly one outcome — a result, or an abort classified by a
// soc.Abort* label — is an error.
func DecodePoint(data []byte) (*CachedPoint, bool, error) {
	body, ok, err := pointBody(data)
	if !ok {
		return nil, false, err
	}
	cp := new(CachedPoint)
	rest, err := decodeFields(body, pointProgram, soc.RefTo(pointProgram, cp))
	return checkPoint(cp, rest, err)
}

// pointBody checks a point record's header and returns its body; ok is
// false for a record of schema 1 or of another layout, and for an error.
func pointBody(data []byte) (body []byte, ok bool, err error) {
	switch {
	case len(data) > 0 && data[0] == '{': // a JSON record of schema 1
		return nil, false, nil
	case len(data) < 1+len(pointLayout) || data[0] != pointMagic:
		return nil, false, errors.New("dse: decoding cached point: not a point record")
	case [len(pointLayout)]byte(data[1:]) != pointLayout:
		return nil, false, nil
	}
	return data[1+len(pointLayout):], true, nil
}

// checkPoint finishes a point whose body decoded with error err and left
// rest: the body must end the record, and the point must be of this schema
// and hold one outcome.
func checkPoint(cp *CachedPoint, rest []byte, err error) (*CachedPoint, bool, error) {
	if err == nil && len(rest) > 0 {
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
	return cp, true, nil
}

var (
	errTruncated = errors.New("value overruns the record")
	errFlag      = errors.New("bad flag byte")
)

// decodeFields fills the zero value at at, walked by p, from the record
// body b and returns the bytes after it. It checks every length and value
// against the bytes left and the field it fills before allocating.
func decodeFields(b []byte, p *soc.Program, at soc.Ref) ([]byte, error) {
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Kind {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			x, n := binary.Uvarint(b)
			if s := 64 - op.Bits; n <= 0 || x<<s>>s != x {
				return nil, fmt.Errorf("bad %s value", op.Type)
			}
			b = b[n:]
			at.SetUint(op, x)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			x, n := binary.Varint(b)
			if s := 64 - op.Bits; n <= 0 || x<<s>>s != x {
				return nil, fmt.Errorf("bad %s value", op.Type)
			}
			b = b[n:]
			at.SetInt(op, x)
		case reflect.Float32, reflect.Float64:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f := math.Float64frombits(binary.LittleEndian.Uint64(b))
			if a := math.Abs(f); op.Bits == 32 && a > math.MaxFloat32 && a <= math.MaxFloat64 {
				return nil, fmt.Errorf("bad %s value", op.Type)
			}
			b = b[8:]
			at.SetFloat(op, f)
		case reflect.Bool:
			set, err := flag(b)
			if err != nil {
				return nil, err
			}
			b = b[1:]
			at.SetBool(op, set)
		case reflect.String:
			n, k, err := length(b, 0)
			if err != nil {
				return nil, err
			}
			b = b[k:]
			at.SetString(op, string(b[:n]))
			b = b[n:]
		case reflect.Pointer:
			set, err := flag(b)
			if err != nil {
				return nil, err
			}
			b = b[1:]
			if set {
				if b, err = decodeFields(b, op.Elem, at.NewElem(op)); err != nil {
					return nil, err
				}
			}
		default: // reflect.Slice
			n, k, err := length(b, 1)
			if err != nil {
				return nil, err
			}
			b = b[k:]
			if n == 0 { // a nil slice
				continue
			}
			m := int(n - 1)
			e := at.MakeSlice(op, m)
			for i := 0; i < m; i++ {
				if b, err = decodeFields(b, op.Elem, e.Index(op.Elem, i)); err != nil {
					return nil, err
				}
			}
		}
	}
	return b, nil
}

// flag reads a bool or a pointer's presence byte from the front of b.
func flag(b []byte) (bool, error) {
	if len(b) == 0 || b[0] > 1 {
		return false, errFlag
	}
	return b[0] == 1, nil
}

// length reads a string or slice length, stored plus bias, from the front of
// b, and returns it and the bytes it took. Every element takes at least one
// byte, so a length beyond the bytes left is an error.
func length(b []byte, bias uint64) (uint64, int, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 || x > uint64(len(b)-n)+bias {
		return 0, 0, errTruncated
	}
	return x, n, nil
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
	return st.Put(key, EncodePoint(cp))
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
