package soc

import (
	"bytes"
	"reflect"
	"testing"

	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/power"
	"gem5aladdin/internal/sim"
)

func canon(c Config) []byte { return c.AppendCanonical(nil) }

// TestCanonicalDeterministic pins the cache-key substrate: identical configs
// encode identically, and the encoding never depends on pointer identity.
func TestCanonicalDeterministic(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	if !bytes.Equal(canon(a), canon(b)) {
		t.Fatal("two DefaultConfigs encode differently")
	}
	// Distinct but equal-valued pointers must encode identically.
	a.Traffic = &TrafficConfig{Period: 100 * sim.Nanosecond, Bytes: 64}
	b.Traffic = &TrafficConfig{Period: 100 * sim.Nanosecond, Bytes: 64}
	a.Power, b.Power = power.Default(), power.Default()
	if !bytes.Equal(canon(a), canon(b)) {
		t.Fatal("equal-valued pointers encode differently")
	}
}

// TestCanonicalSensitivity checks that every kind of change to the design
// point — top-level scalar, nested struct, pointer presence, pointer
// contents, fault block — produces a different encoding.
func TestCanonicalSensitivity(t *testing.T) {
	base := canon(DefaultConfig())
	mutations := map[string]func(*Config){
		"mem kind":         func(c *Config) { c.Mem = Cache },
		"lanes":            func(c *Config) { c.Lanes = 8 },
		"bool flag":        func(c *Config) { c.Prefetch = !c.Prefetch },
		"accel clock":      func(c *Config) { c.AccelHz = 200e6 },
		"nested dram":      func(c *Config) { c.DRAM.Banks = 4 },
		"nested cpu clock": func(c *Config) { c.CPU.Clock.Period *= 2 },
		"fault seed":       func(c *Config) { c.Faults.Seed = 7 },
		"traffic present":  func(c *Config) { c.Traffic = &TrafficConfig{Period: 1, Bytes: 1} },
		"power present":    func(c *Config) { c.Power = power.Default() },
		"sanitize":         func(c *Config) { c.Sanitize = true },
		"watchdog":         func(c *Config) { c.WatchdogTicks = 1 },
	}
	for name, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if bytes.Equal(base, canon(c)) {
			t.Errorf("%s: mutation did not change the canonical encoding", name)
		}
	}
	// Pointer contents, not just presence.
	a, b := DefaultConfig(), DefaultConfig()
	a.Power, b.Power = power.Default(), power.Default()
	b.Power.LaneLeakUW *= 2
	if bytes.Equal(canon(a), canon(b)) {
		t.Error("power-model contents not part of the encoding")
	}
}

// TestCanonicalIgnoresObs pins the exclusion: an attached observer changes
// what is recorded, never what is simulated, so it must not split the cache.
func TestCanonicalIgnoresObs(t *testing.T) {
	plain := DefaultConfig()
	observed := DefaultConfig()
	observed.Obs = obs.New(true)
	if !bytes.Equal(canon(plain), canon(observed)) {
		t.Fatal("Obs attachment changed the canonical encoding")
	}
}

// TestCanonicalCoversEveryField is the fail-closed hashing gate: it walks
// every exported Config field reflectively — recursing through nested
// structs, treating pointers as presence leaves — mutates each one on a
// fresh copy, and demands a different encoding. A field the canonical walk
// forgot (or a future skip-list entry beyond Obs) fails here instead of
// silently aliasing PointKeys and poisoning the durable store.
func TestCanonicalCoversEveryField(t *testing.T) {
	base := DefaultConfig()
	ref := canon(base)

	leaves := canonLeaves(reflect.TypeOf(base), "", nil)
	if len(leaves) < 30 {
		t.Fatalf("leaf enumeration looks broken: only %d leaves", len(leaves))
	}
	for _, lf := range leaves {
		mut := base
		v := reflect.ValueOf(&mut).Elem().FieldByIndex(lf.index)
		if !mutateCanonValue(v) {
			t.Errorf("field %s: no mutation strategy for kind %s", lf.name, v.Kind())
			continue
		}
		if bytes.Equal(canon(mut), ref) {
			t.Errorf("field %s is not consumed by the canonical encoding", lf.name)
		}
	}

	// The field names themselves are part of the stream; every top-level
	// exported field except Obs must appear.
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Obs" {
			continue
		}
		if !bytes.Contains(ref, []byte(f.Name+"=")) {
			t.Errorf("field name %s missing from the canonical stream", f.Name)
		}
	}

	// Obs must remain the single excluded field: an observer changes what
	// is recorded, never what is simulated.
	mut := base
	mut.Obs = obs.New(false)
	if !bytes.Equal(canon(mut), ref) {
		t.Error("Obs leaked into the canonical encoding")
	}
}

type canonLeaf struct {
	name  string
	index []int
}

// canonLeaves enumerates every mutatable leaf of a config struct type:
// scalars and pointers directly, nested struct fields recursively. Obs is
// the one sanctioned exclusion.
func canonLeaves(typ reflect.Type, prefix string, index []int) []canonLeaf {
	var out []canonLeaf
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if prefix == "" && f.Name == "Obs" {
			continue
		}
		name := f.Name
		if prefix != "" {
			name = prefix + "." + f.Name
		}
		idx := append(append([]int{}, index...), i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, canonLeaves(f.Type, name, idx)...)
			continue
		}
		out = append(out, canonLeaf{name: name, index: idx})
	}
	return out
}

// mutateCanonValue changes v to a provably different value, reporting
// whether it knew how.
func mutateCanonValue(v reflect.Value) bool {
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
		// Toggling presence flips the encoding's presence byte.
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.Set(reflect.Zero(v.Type()))
		}
	case reflect.Array:
		if v.Len() == 0 {
			return false
		}
		return mutateCanonValue(v.Index(0))
	default:
		return false
	}
	return true
}

// TestCanonicalProgramRejectsStringsAndSlices pins when a field the
// canonical encoding cannot write fails: when its program is checked, which
// for Config is when the package starts, not at the first value encoded.
func TestCanonicalProgramRejectsStringsAndSlices(t *testing.T) {
	type inner struct{ S string }
	for name, v := range map[string]any{
		"string":         struct{ S string }{},
		"slice":          struct{ L []int }{},
		"nested string":  struct{ P *inner }{},
		"string element": struct{ A [2]inner }{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a canonical program accepted a %s field", name)
				}
			}()
			canonicalProgram(PlanOf(reflect.TypeOf(v)).Compile())
		}()
	}
	canonicalProgram(PlanOf(reflect.TypeOf(struct {
		P *TrafficConfig
		A [2]float32
	}{})).Compile())
}
