package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"gem5aladdin/internal/soc"
)

// gridDigest hashes a config list's canonical encodings in order: two lists
// share a digest only if they hold the same points in the same order.
func gridDigest(cfgs []soc.Config) string {
	h := sha256.New()
	for _, c := range cfgs {
		h.Write(c.AppendCanonical(nil))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenGrid is one memory system's Fig 3 grid, quick or full, on a bus of
// the given width, crossed with the fabric kinds.
func goldenGrid(mem soc.MemKind, full bool, fabrics []soc.FabricKind, busBits int) []soc.Config {
	base := soc.DefaultConfig()
	base.BusWidthBits = busBits
	base.Mem = mem
	return GridSpace(base, full, fabrics).Grid()
}

// goldenScenario is one design scenario's grid, quick or full.
func goldenScenario(sc Scenario, full bool) []soc.Config {
	return sc.Space(full).Grid()
}

// TestGridGolden pins every grid the Fig 3 table expands to, point for
// point and in order. The digests were taken from the dedicated grid
// builders that came before grids were walked as SearchSpaces; a mismatch
// means a figure, cmd/dse or the sweep service now sweeps other points, or
// the same points in another order. Never edit a digest to make a refactor
// pass.
func TestGridGolden(t *testing.T) {
	grids := map[string]string{
		"quick/isolated/bus/32b":     "e9226a6ecb1a48ac3ae49626b083c76db8d8b8591da53a285d473cf4fc2b22c6",
		"quick/isolated/bus/64b":     "762b14fcd1b563b50b722a16cff93b635c8ed6cdbec072bf0cffc148263ebe3e",
		"quick/isolated/fabrics/32b": "f3b590c7eb6c6f1dbfeb493e84a0eb3b3f7a7cac2d9152a8390cff06b5a35472",
		"quick/isolated/fabrics/64b": "47383c1ddeab963bef8635537f0e179178414e00d935a2cbd552a8eac5ada15e",
		"quick/dma/bus/32b":          "a2da4016ca326d014ce85a9df027a30002a7068bdefc6413a83f00c241880b2b",
		"quick/dma/bus/64b":          "d995b9327c6be33c5935cb19101f52d67ba392cba2348f2100cda82761eb59ef",
		"quick/dma/fabrics/32b":      "5c51a9e3ffe8fdc80836fa075add3c37ccbfb4d5d636d61b52c101993bb31b2f",
		"quick/dma/fabrics/64b":      "a9c2dab2cb7198c946ac01c3334191f4ed58b2c8b5a82d8aa1ac7dcd1e5a3e6d",
		"quick/cache/bus/32b":        "6becba4b69c82c039aa078d4ee98ae32c60bc89f73f4ebbde48ae47016de8141",
		"quick/cache/bus/64b":        "be8eb587dc3b0af584282549b79f26f2e071398699f99297054c4d4445a7c575",
		"quick/cache/fabrics/32b":    "8e0c61c730b70023b30f316898a075253b7b28216c7adaa797a1391829d29875",
		"quick/cache/fabrics/64b":    "cfd91428b2968288ddfe9670241ea099cd52de04a27f44aa9ef5783c80c70ee5",
		"full/isolated/bus/32b":      "e30a68c3f8796ffa7cc78f2c46c98fc3613bf890ccec92564c73644efc69240f",
		"full/isolated/bus/64b":      "9023b70d469e266f0cdd2282d7f93b1e92e9ae4c90c69e7693c1484959932780",
		"full/isolated/fabrics/32b":  "f59578be06fb42f1f4aa5a31094f0744e6651cb336af391845ffbb07d675523e",
		"full/isolated/fabrics/64b":  "0abc622605f54cbe0c22007415d844f2889f9754b23ca45edee5f1823b6ee8e3",
		"full/dma/bus/32b":           "524a1856e430161efea0b9bf985230507b0ecd3749f4463eb5e939303dc3d392",
		"full/dma/bus/64b":           "3a211d8eaad9cfc3727d9bd66a6ffce6dad1ff53a96ae84143c8ad9f9b673e1e",
		"full/dma/fabrics/32b":       "1158eeb8f2728ba8cb0af8ba7b8aa0e256e614e2c7ee5abf35f53721e020064a",
		"full/dma/fabrics/64b":       "67bfc8f4b0067a4997b2586b399aab8f6ca2f40dd7081816d52f7c214e2ab2fe",
		"full/cache/bus/32b":         "065befbd6e68ccbd31cca687bf5d95a0ab2a41c75d5060d32da699e7aebcee70",
		"full/cache/bus/64b":         "0a04106b6cbd540802336774552285cb3e6594e45134a4532c4596960b6888d9",
		"full/cache/fabrics/32b":     "ee8cf57c08b81af9296b125c304fb704fd520ce2a7ff2e04d44848d47dc344e9",
		"full/cache/fabrics/64b":     "34ff364e8b489afcdbf9f2ede219eaa3865e74ac832fd05ce622d2ab5ef8f19f",
	}
	size := map[bool]string{false: "quick", true: "full"}
	for _, full := range []bool{false, true} {
		for _, mem := range []soc.MemKind{soc.Isolated, soc.DMA, soc.Cache} {
			for fabrics, kinds := range map[string][]soc.FabricKind{"bus": nil, "fabrics": soc.FabricKinds()} {
				for _, bus := range []int{32, 64} {
					name := fmt.Sprintf("%s/%s/%s/%db", size[full], mem, fabrics, bus)
					cfgs := goldenGrid(mem, full, kinds, bus)
					if got := gridDigest(cfgs); got != grids[name] {
						t.Errorf("%s (%d points): digest %s, want %s", name, len(cfgs), got, grids[name])
					}
				}
			}
		}
	}

	scenarios := map[string]string{
		"quick/isolated":  "e9226a6ecb1a48ac3ae49626b083c76db8d8b8591da53a285d473cf4fc2b22c6",
		"quick/dma-32b":   "a2da4016ca326d014ce85a9df027a30002a7068bdefc6413a83f00c241880b2b",
		"quick/cache-32b": "6becba4b69c82c039aa078d4ee98ae32c60bc89f73f4ebbde48ae47016de8141",
		"quick/cache-64b": "be8eb587dc3b0af584282549b79f26f2e071398699f99297054c4d4445a7c575",
		"full/isolated":   "e30a68c3f8796ffa7cc78f2c46c98fc3613bf890ccec92564c73644efc69240f",
		"full/dma-32b":    "524a1856e430161efea0b9bf985230507b0ecd3749f4463eb5e939303dc3d392",
		"full/cache-32b":  "065befbd6e68ccbd31cca687bf5d95a0ab2a41c75d5060d32da699e7aebcee70",
		"full/cache-64b":  "0a04106b6cbd540802336774552285cb3e6594e45134a4532c4596960b6888d9",
	}
	for _, full := range []bool{false, true} {
		for _, sc := range Scenarios() {
			name := size[full] + "/" + sc.Name
			cfgs := goldenScenario(sc, full)
			if got := gridDigest(cfgs); got != scenarios[name] {
				t.Errorf("scenario %s (%d points): digest %s, want %s", name, len(cfgs), got, scenarios[name])
			}
		}
	}
}

// TestGridSpaceFollowsBaseMem checks that a grid's axes come from its base
// config's memory system: every point keeps base.Mem, and only a cache base
// walks cache geometry.
func TestGridSpaceFollowsBaseMem(t *testing.T) {
	for _, mem := range []soc.MemKind{soc.Isolated, soc.DMA, soc.Cache} {
		base := soc.DefaultConfig()
		base.Mem = mem
		sp := GridSpace(base, false, nil)
		if got := sp.Axes[len(sp.Axes)-1].Name == "cache_assoc"; got != (mem == soc.Cache) {
			t.Errorf("%v: axes %v", mem, sp.Axes)
		}
		for i, c := range sp.Grid() {
			if c.Mem != mem {
				t.Fatalf("%v: point %d has memory system %v", mem, i, c.Mem)
			}
		}
	}
}
