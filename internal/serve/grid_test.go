package serve_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gem5aladdin/internal/serve"
	"gem5aladdin/internal/soc"
)

// requestDigest hashes what a request expands to: its configs' canonical
// encodings in order, then the expansion error's text, if any.
func requestDigest(cfgs []soc.Config, err error) string {
	h := sha256.New()
	for _, c := range cfgs {
		h.Write(c.AppendCanonical(nil))
	}
	if err != nil {
		h.Write([]byte(err.Error()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRequestGridGolden pins SweepRequest.Configs over a table that uses
// every grid override field plus full, fabric, mesh_dim, burst_len, faults
// and watchdog_ticks: the points each request sweeps, in order, and for the
// invalid requests the error text as well. The digests were taken before
// requests were expanded through one shared SearchSpace; never edit one to
// make a refactor pass.
func TestRequestGridGolden(t *testing.T) {
	faults := &serve.FaultSpec{Seed: 7, BusNackProb: 0.2, BusRetryLimit: 6,
		BusBackoffNS: 20, DMATimeoutNS: 5000, DMARetries: 2}
	for _, c := range []struct {
		name string
		req  serve.SweepRequest
		want string
	}{
		{"kernel only", serve.SweepRequest{}, "a2da4016ca326d014ce85a9df027a30002a7068bdefc6413a83f00c241880b2b"},
		{"isolated full", serve.SweepRequest{Mem: "isolated", Full: true}, "e30a68c3f8796ffa7cc78f2c46c98fc3613bf890ccec92564c73644efc69240f"},
		{"cache quick", serve.SweepRequest{Mem: "cache"}, "6becba4b69c82c039aa078d4ee98ae32c60bc89f73f4ebbde48ae47016de8141"},
		{"cache full 64-bit", serve.SweepRequest{Mem: "cache", Full: true, BusBits: 64}, "0a04106b6cbd540802336774552285cb3e6594e45134a4532c4596960b6888d9"},
		{"lanes and partitions", serve.SweepRequest{Mem: "dma", Lanes: []int{2, 8}, Partitions: []int{4, 1, 4}}, "f1e60f73399781c31203aea51b88ecd8fbe7fbe8e9dadad6e8c6c82a490f2c59"},
		{"cache overrides", serve.SweepRequest{Mem: "cache", Lanes: []int{1, 2}, CacheKB: []int{2, 64},
			CacheLines: []int{16, 64}, CachePorts: []int{2}, CacheAssoc: []int{1, 3, 8}}, "e35ef7be31ac6267c516c62c904e50484a372e76962257cdcf22dd9a2eb22f19"},
		{"full with overrides", serve.SweepRequest{Mem: "cache", Full: true, CacheKB: []int{4}, CachePorts: []int{8}}, "d83476fd7bf48d6068582171e4a1e690fffb284bdcdecc746256a37593155c95"},
		{"cache ignores partitions", serve.SweepRequest{Mem: "cache", Partitions: []int{2}}, "6becba4b69c82c039aa078d4ee98ae32c60bc89f73f4ebbde48ae47016de8141"},
		{"dma ignores cache axes", serve.SweepRequest{Mem: "dma", CacheKB: []int{64}, CacheAssoc: []int{3}}, "a2da4016ca326d014ce85a9df027a30002a7068bdefc6413a83f00c241880b2b"},
		{"fabrics and mesh_dim", serve.SweepRequest{Mem: "dma", Fabrics: []string{"mesh", "bus"}, MeshDim: 3}, "77fcc552bf5e2b37e1d51ff80508e6c619c904d9a47f552cc5c07c632930c735"},
		{"crossbar burst_len", serve.SweepRequest{Mem: "cache", Fabrics: []string{"xbar"}, BurstLen: 8}, "00dd104c68bec7832abdbc191050bb1c608409a6f89a90a3dfc776030e5b0f1a"},
		{"full isolated fabrics", serve.SweepRequest{Mem: "isolated", Full: true, Fabrics: []string{"bus", "crossbar", "mesh"}}, "f59578be06fb42f1f4aa5a31094f0744e6651cb336af391845ffbb07d675523e"},
		{"repeated fabric", serve.SweepRequest{Fabrics: []string{"bus", "bus"}}, "9e41a8d8cfe23348f39e026c32ccd55b9a85b4cac5efc347addaa871625e9f5e"},
		{"faults and watchdog_ticks", serve.SweepRequest{Mem: "cache", Faults: faults, WatchdogTicks: 1e9}, "aed294b4a9caf78998091a3d293e7cdf8a8ee04c67cd7bbf8b0f47db2abf5e73"},

		{"search", serve.SweepRequest{Search: &serve.SearchSpec{Seed: 1}, Mem: "telepathy"}, "f361c4452b6b40feb4b3107933d76e22d092be218a272d369962dda9c480c4bf"},
		{"unknown mem", serve.SweepRequest{Mem: "telepathy", BusBits: 12}, "0951983a02d33b896b67ba6828829e430e5ba6485294fe35df8436c4a7e9fdc1"},
		{"unknown fabric", serve.SweepRequest{Fabrics: []string{"ring"}}, "09fd62d1513376482bd6f35ae78a643650d428ece8b88c406945b419637e47b2"},
		{"bus width", serve.SweepRequest{BusBits: 12, Fabrics: []string{"ring"}}, "f1914d54fcc286e8e88c2870346ee1aaa43bd490963e77c1614c079f4bc4d0d6"},
		{"mesh_dim", serve.SweepRequest{Fabrics: []string{"mesh"}, MeshDim: 99}, "53e151531913046976d68e49382d9383090ed5b585950d0a61ea8c84f1573639"},
		{"burst_len", serve.SweepRequest{Mem: "cache", BurstLen: -1}, "e8c1f28b7d5bca4ff2caa1e22d6673783561dcb570a01ef383c2878455e1da60"},
		{"faults", serve.SweepRequest{Faults: &serve.FaultSpec{Seed: 1, BusNackProb: 1.5}}, "e2f0555aa8d8c80b6442c0ae9a2b1e25ebe4fac472a94d204b11a99086d155a8"},
		{"partitions 0", serve.SweepRequest{Partitions: []int{0}}, "9790128a04d2f8fd266bd9e61d7d7cd0a80b573f636cd3c04e7e7dbb8a5f9202"},
		{"partitions 0 and 4", serve.SweepRequest{Mem: "dma", Partitions: []int{0, 4}}, "9790128a04d2f8fd266bd9e61d7d7cd0a80b573f636cd3c04e7e7dbb8a5f9202"},
		{"first infeasible point", serve.SweepRequest{Mem: "isolated", Lanes: []int{4, 0}, Partitions: []int{0, 1}}, "9790128a04d2f8fd266bd9e61d7d7cd0a80b573f636cd3c04e7e7dbb8a5f9202"},
		{"lanes 0 with fabrics", serve.SweepRequest{Lanes: []int{0}, Fabrics: []string{"crossbar", "mesh"}}, "bf72470d25788fd0de944413aa5da8eb3b2678be503fb34fc200f90e88b467b3"},
		{"empty cache grid", serve.SweepRequest{Mem: "cache", CacheAssoc: []int{3}}, "bab67840784db60447f130689e4733b30ff53dcd3be03cf1873bf6af053be3d6"},
	} {
		c.req.Kernel = "spmv-crs"
		cfgs, err := c.req.Configs()
		if got := requestDigest(cfgs, err); got != c.want {
			t.Errorf("%s (%d points, err %v): digest %s, want %s", c.name, len(cfgs), err, got, c.want)
		}
	}
}
