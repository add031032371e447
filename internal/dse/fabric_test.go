package dse

import (
	"context"
	"testing"

	"gem5aladdin/internal/soc"
)

// TestGridFabricAxisFirst checks the axis algebra: GridSpace puts a fabric
// axis first, so the walk replicates the grid kind-major without disturbing
// the other fields, and an empty kind list leaves the grid as it was.
func TestGridFabricAxisFirst(t *testing.T) {
	base := soc.DefaultConfig()
	grid := GridSpace(base, false, nil).Grid()
	kinds := soc.FabricKinds()
	cfgs := GridSpace(base, false, kinds).Grid()
	if len(cfgs) != len(grid)*len(kinds) {
		t.Fatalf("grid size = %d, want %d", len(cfgs), len(grid)*len(kinds))
	}
	for i, c := range cfgs {
		wantKind := kinds[i/len(grid)]
		if c.Fabric.Kind != wantKind {
			t.Fatalf("config %d has fabric %v, want %v", i, c.Fabric.Kind, wantKind)
		}
		want := grid[i%len(grid)]
		want.Fabric.Kind = wantKind
		if c != want {
			t.Fatalf("config %d diverged from its base beyond the fabric kind", i)
		}
	}
	if got := GridSpace(base, false, nil).Axes; len(got) != 2 {
		t.Fatalf("empty kind list added an axis: %v", got)
	}
}

// TestSweepFabricAxisWorkerInvariant is the determinism contract for the new
// axis: a sweep over every fabric backend must be bit-identical whether it
// runs on one worker or four, and distinct backends must price design points
// differently.
func TestSweepFabricAxisWorkerInvariant(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	cfgs := SearchSpace{Base: soc.DefaultConfig(), Axes: []SearchAxis{
		FabricAxis(),
		{Name: "lanes", Values: []int{1, 4}},
		{Name: "partitions", Values: []int{1, 4}},
	}}.Grid()

	serial, err := Sweep(context.Background(), k, cfgs, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(context.Background(), k, cfgs, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(cfgs) || len(parallel) != len(cfgs) {
		t.Fatalf("space sizes %d/%d, want %d", len(serial), len(parallel), len(cfgs))
	}
	for i := range serial {
		if serial[i].Res.Runtime != parallel[i].Res.Runtime ||
			serial[i].Res.EDPJs != parallel[i].Res.EDPJs {
			t.Fatalf("point %d (%v) differs across worker counts",
				i, serial[i].Cfg.Fabric.Kind)
		}
	}

	// The same accelerator design must not be priced identically by every
	// interconnect: compare the first base config across the three kinds.
	per := len(cfgs) / 3
	r0 := serial[0*per].Res.Runtime
	if serial[1*per].Res.Runtime == r0 && serial[2*per].Res.Runtime == r0 {
		t.Error("crossbar and mesh runtimes both equal the bus runtime: fabric axis is inert")
	}
}

// TestPointKeySeparatesFabrics pins that the canonical hash distinguishes
// fabric kinds and parameters, so result caches never alias across backends.
func TestPointKeySeparatesFabrics(t *testing.T) {
	base := soc.DefaultConfig()
	keys := map[string]string{}
	for _, k := range soc.FabricKinds() {
		c := base
		c.Fabric.Kind = k
		key := PointKey("x", c)
		if prev, dup := keys[key]; dup {
			t.Fatalf("fabric %v collides with %s under PointKey", k, prev)
		}
		keys[key] = k.String()
	}
	c := base
	c.Fabric.Kind = soc.FabricMesh
	c.Fabric.MeshDim = 4
	if _, dup := keys[PointKey("x", c)]; dup {
		t.Fatal("mesh_dim is invisible to PointKey")
	}
	c = base
	c.Fabric.Kind = soc.FabricCrossbar
	c.Fabric.BurstLen = 8
	if _, dup := keys[PointKey("x", c)]; dup {
		t.Fatal("burst_len is invisible to PointKey")
	}
}

// TestSearchFabricAxis runs a small adaptive search with the fabric axis
// attached and checks it is deterministic and actually explores backends.
func TestSearchFabricAxis(t *testing.T) {
	k := kernelOf(t, "spmv-crs")
	space := SearchSpace{
		Base: soc.DefaultConfig(),
		Axes: []SearchAxis{
			{Name: "lanes", Values: []int{1, 2, 4, 8}},
			{Name: "partitions", Values: []int{1, 2, 4}},
			FabricAxis(),
		},
	}
	opts := SearchOptions{Seed: 3, Budget: 24, InitSamples: 8, RoundSize: 8, Workers: 2}
	a, err := Search(context.Background(), k, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(context.Background(), k, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Evaluated != b.Evaluated || len(a.Front) != len(b.Front) {
		t.Fatalf("search with fabric axis nondeterministic: %d/%d pts, %d/%d front",
			a.Evaluated, b.Evaluated, len(a.Front), len(b.Front))
	}
	seen := map[soc.FabricKind]bool{}
	for _, p := range a.Points {
		seen[soc.FabricKind(p.Idx[2])] = true
	}
	if len(seen) < 2 {
		t.Errorf("search never left one fabric backend: %v", seen)
	}
}
