package soc

import (
	"errors"
	"math"
	"testing"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/sim"
)

func TestValidateDefaultConfig(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	cc := DefaultConfig()
	cc.Mem = Cache
	if err := cc.Validate(); err != nil {
		t.Fatalf("default cache config invalid: %v", err)
	}
	// A fully-populated, legal Faults block must also pass.
	fc := DefaultConfig()
	fc.Faults = fault.Config{Seed: 1, DRAMBitProb: 1e-6, SpadBitProb: 1e-6,
		CacheBitProb: 1e-6, DoubleBitFrac: 0.1, BusNackProb: 0.01,
		BusRetryLimit: 4, BusBackoff: 10 * sim.Nanosecond,
		DMATimeout: 100 * sim.Nanosecond, DMARetries: 2}
	fc.Sanitize = true
	fc.WatchdogTicks = sim.Tick(1e12)
	if err := fc.Validate(); err != nil {
		t.Fatalf("legal faults block rejected: %v", err)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	mutate := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"zero lanes", mutate(func(c *Config) { c.Lanes = 0 }), "Lanes"},
		{"negative lanes", mutate(func(c *Config) { c.Lanes = -4 }), "Lanes"},
		{"zero partitions", mutate(func(c *Config) { c.Partitions = 0 }), "Partitions"},
		{"zero spad ports", mutate(func(c *Config) { c.SpadPorts = 0 }), "SpadPorts"},
		{"zero accel clock", mutate(func(c *Config) { c.AccelHz = 0 }), "AccelHz"},
		{"zero bus clock", mutate(func(c *Config) { c.BusHz = 0 }), "BusHz"},
		{"zero bus width", mutate(func(c *Config) { c.BusWidthBits = 0 }), "BusWidthBits"},
		{"ragged bus width", mutate(func(c *Config) { c.BusWidthBits = 12 }), "BusWidthBits"},
		{"huge bus width", mutate(func(c *Config) { c.BusWidthBits = 1 << 20 }), "BusWidthBits"},
		{"uint32-truncating bus width", mutate(func(c *Config) { c.BusWidthBits = 1 << 35 }), "BusWidthBits"},
		{"zero dram banks", mutate(func(c *Config) { c.DRAM.Banks = 0 }), "DRAM.Banks"},
		{"zero cpu clock", mutate(func(c *Config) { c.CPU.Clock.Period = 0 }), "CPU.Clock"},
		{"zero traffic period", mutate(func(c *Config) { c.Traffic = &TrafficConfig{Period: 0, Bytes: 64} }), "Traffic.Period"},
		{"unknown mem kind", mutate(func(c *Config) { c.Mem = MemKind(42) }), "Mem"},
		{"zero cache size", mutate(func(c *Config) { c.Mem = Cache; c.CacheKB = 0 }), "CacheKB"},
		{"non-pow2 cache line", mutate(func(c *Config) { c.Mem = Cache; c.CacheLineBytes = 48 }), "CacheLineBytes"},
		{"huge cache line", mutate(func(c *Config) { c.Mem = Cache; c.CacheLineBytes = 1 << 21 }), "CacheLineBytes"},
		{"uint32-truncating cache line", mutate(func(c *Config) {
			// 2^37 is a power of two that narrows to uint32(0) at cache
			// construction; the explicit bound must reject it first.
			c.Mem = Cache
			c.CacheLineBytes = 1 << 37
		}), "CacheLineBytes"},
		{"non-pow2 assoc", mutate(func(c *Config) { c.Mem = Cache; c.CacheAssoc = 3 }), "CacheAssoc"},
		{"zero cache ports", mutate(func(c *Config) { c.Mem = Cache; c.CachePorts = 0 }), "CachePorts"},
		{"zero mshrs", mutate(func(c *Config) { c.Mem = Cache; c.MSHRs = 0 }), "MSHRs"},
		{"negative dram prob", mutate(func(c *Config) { c.Faults.DRAMBitProb = -0.1 }), "Faults.DRAMBitProb"},
		{"spad prob over one", mutate(func(c *Config) { c.Faults.SpadBitProb = 1.5 }), "Faults.SpadBitProb"},
		{"NaN cache prob", mutate(func(c *Config) { c.Faults.CacheBitProb = math.NaN() }), "Faults.CacheBitProb"},
		{"double frac over one", mutate(func(c *Config) { c.Faults.DoubleBitFrac = 2 }), "Faults.DoubleBitFrac"},
		{"bus prob over one", mutate(func(c *Config) { c.Faults.BusNackProb = 1.01 }), "Faults.BusNackProb"},
		{"negative bus retries", mutate(func(c *Config) { c.Faults.BusNackProb = 0.1; c.Faults.BusBackoff = 1; c.Faults.BusRetryLimit = -1 }), "Faults.BusRetryLimit"},
		{"negative dma retries", mutate(func(c *Config) { c.Faults.DMARetries = -2 }), "Faults.DMARetries"},
		{"nack without backoff", mutate(func(c *Config) { c.Faults.BusNackProb = 0.1 }), "Faults.BusBackoff"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an impossible design point", tc.name)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *ConfigError", tc.name, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: fault attributed to %q, want %q", tc.name, ce.Field, tc.field)
		}
	}

	// Non-power-of-two set count: caught via the cache model's geometry
	// check and surfaced as a ConfigError naming the cache field group.
	c := DefaultConfig()
	c.Mem = Cache
	c.CacheKB = 3
	var ce *ConfigError
	if err := c.Validate(); !errors.As(err, &ce) {
		t.Fatalf("3KB cache: got %v, want a *ConfigError", err)
	}
}

// TestRunRejectsImpossibleConfig pins that Run fails fast with the typed
// error instead of panicking inside component construction.
func TestRunRejectsImpossibleConfig(t *testing.T) {
	g := streamKernel(64)
	for _, breakIt := range []func(*Config){
		func(c *Config) { c.Lanes = 0 },
		func(c *Config) { c.BusWidthBits = 0 },
		func(c *Config) { c.Mem = Cache; c.CacheLineBytes = 24 },
	} {
		cfg := DefaultConfig()
		breakIt(&cfg)
		_, err := Run(Compile(g), cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("Run(%+v) = %v, want *ConfigError", cfg, err)
		}
	}
	if _, err := repeated(Compile(g), Config{}, 2, false); err == nil {
		t.Fatal("a repeated invocation accepted the zero Config")
	}
	if _, err := together([]*Compiled{Compile(g), Compile(g)}, []Config{DefaultConfig(), {}}); err == nil {
		t.Fatal("a two-accelerator invocation accepted a zero Config in position 1")
	}
}

// TestParseMemKind pins the one parser behind every -mem flag and the
// service's "mem" field: exactly the swept systems, with "" meaning DMA.
func TestParseMemKind(t *testing.T) {
	for name, want := range map[string]MemKind{"isolated": Isolated, "dma": DMA, "cache": Cache, "": DMA} {
		if got, err := ParseMemKind(name); err != nil || got != want {
			t.Errorf("ParseMemKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"ideal", "DMA", "telepathy"} {
		if _, err := ParseMemKind(name); err == nil {
			t.Errorf("ParseMemKind(%q) accepted", name)
		}
	}
}
