package dse

import (
	"testing"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/power"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
)

// TestPointKey pins the content-address contract: stable across calls,
// different per kernel and per config, and insensitive to the kernel/config
// boundary (no concatenation ambiguity).
func TestPointKey(t *testing.T) {
	cfg := soc.DefaultConfig()
	if PointKey("gemm-ncubed", cfg) != PointKey("gemm-ncubed", cfg) {
		t.Fatal("PointKey not deterministic")
	}
	if PointKey("gemm-ncubed", cfg) == PointKey("spmv-crs", cfg) {
		t.Fatal("kernel name not part of the key")
	}
	other := cfg
	other.Lanes = 8
	if PointKey("gemm-ncubed", cfg) == PointKey("gemm-ncubed", other) {
		t.Fatal("config not part of the key")
	}
	// The separator keeps ("ab", cfg) and ("a", cfg') domains apart even
	// though the canonical bytes begin with a fixed prefix; spot-check the
	// simplest aliasing shape.
	if PointKey("ab", cfg) == PointKey("a", cfg) {
		t.Fatal("kernel-name prefix aliases")
	}
	if len(PointKey("x", cfg)) != 64 {
		t.Fatal("key is not hex sha256")
	}
}

func memConfig(mem soc.MemKind) soc.Config {
	cfg := soc.DefaultConfig()
	cfg.Mem = mem
	return cfg
}

// TestPointKeyGolden pins the exact content addresses: every durable store
// is keyed by them, so a change to the canonical encoding or the key hash
// would orphan every stored point and job checkpoint without failing a
// property test.
func TestPointKeyGolden(t *testing.T) {
	crossbar := memConfig(soc.DMA)
	crossbar.Fabric = soc.FabricConfig{Kind: soc.FabricCrossbar, BurstLen: 16}
	mesh := memConfig(soc.DMA)
	mesh.Fabric = soc.FabricConfig{Kind: soc.FabricMesh, MeshDim: 3, LinkWidthBits: 64}
	pointers := memConfig(soc.Cache)
	pointers.Traffic = &soc.TrafficConfig{Period: 100 * sim.Nanosecond, Bytes: 64}
	pointers.Power = power.Default()
	pointers.Faults = fault.Config{Seed: 7, BusNackProb: 0.2, BusRetryLimit: 6}
	for _, c := range []struct {
		name string
		cfg  soc.Config
		want string
	}{
		{"dma (bus)", memConfig(soc.DMA), "fd6e91fd01d38dfec2688444bd3dbc4f1769e0f10fb6edbddd8a3af35e81e129"},
		{"cache", memConfig(soc.Cache), "44e56e1cbf88629f37e777112102a757bdf0537741b2d5bdfbb902a65fc9983c"},
		{"isolated", memConfig(soc.Isolated), "2ccb7096c9d92b7900f1a885bae7745437e6bbfd308b524970468122724453e1"},
		{"crossbar", crossbar, "06abcebe1fe69ff5cc09bbd1337694cc320ec49b0e2c080c6706089cd645c1fc"},
		{"mesh", mesh, "6168c997b9b4480a47fbb2c0f99b0a63d87190b84d88b623aa521846daf8ab21"},
		{"traffic, power and faults", pointers, "c39117b45a86bb24784b390e6e4ad167a7c791ec8c63524cded464b688f52845"},
	} {
		if got := PointKey("stencil-stencil3d", c.cfg); got != c.want {
			t.Errorf("%s: PointKey = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSearchFingerprintGolden pins the checkpoint address of the default
// search spaces, fabric axis included: a resumed search job finds its
// checkpoint only under the fingerprint it was written with.
func TestSearchFingerprintGolden(t *testing.T) {
	for mem, want := range map[soc.MemKind]string{
		soc.DMA:   "357a4ad6e91ae9e8fc66a20060c8d9d9fda7bbc807803e913291d6de0c9d59fa",
		soc.Cache: "7cba4fbb1146152ed3a04d00d510bd74265d96cd95178e9ea2e43fdd462a236c",
	} {
		sp := SearchSpace{Base: memConfig(mem), Axes: append(DefaultSearchAxes(mem), FabricAxis())}
		if got := sp.Fingerprint("stencil-stencil3d", 77); got != want {
			t.Errorf("%v: Fingerprint = %s, want %s", mem, got, want)
		}
	}
}
