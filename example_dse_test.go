package gem5aladdin_test

import (
	"context"
	"errors"
	"fmt"

	gem5aladdin "gem5aladdin"
)

// ExampleSweep traces a small saxpy kernel, sweeps a lanes x partitions
// space of DMA-backed scratchpad designs, and extracts the Pareto frontier
// and the EDP-optimal point — the cmd/dse workflow, from library code.
func ExampleSweep() {
	const n = 256
	b := gem5aladdin.NewKernel("saxpy")
	x := b.Alloc("x", gem5aladdin.F64, n, gem5aladdin.In)
	y := b.Alloc("y", gem5aladdin.F64, n, gem5aladdin.InOut)
	for i := 0; i < n; i++ {
		b.SetF64(x, i, float64(i))
		b.SetF64(y, i, 1.0)
	}
	a := b.ConstF(2.0)
	for i := 0; i < n; i++ {
		b.BeginIter()
		b.Store(y, i, b.FAdd(b.FMul(a, b.Load(x, i)), b.Load(y, i)))
	}
	k := gem5aladdin.Compile(gem5aladdin.BuildGraph(b.Finish()))

	// Describe the design space once (the quick Fig 3 grid of the default
	// DMA design: lanes x scratchpad partitions), walk every point of its
	// grid, and evaluate the points in parallel.
	designs := gem5aladdin.GridSpace(gem5aladdin.DefaultConfig(), false, nil)
	space, err := gem5aladdin.Sweep(context.Background(), k, designs.Grid(),
		gem5aladdin.SweepOptions{})
	if err != nil {
		panic(err)
	}

	front := gem5aladdin.ParetoFront(space)
	best, ok := gem5aladdin.EDPOptimal(space)
	if !ok {
		panic("empty design space")
	}
	onFront := false
	for _, p := range front {
		if p.Cfg == best.Cfg {
			onFront = true
		}
	}
	fmt.Printf("evaluated %d design points\n", len(space))
	fmt.Printf("frontier is non-empty and within the space: %v\n",
		len(front) > 0 && len(front) <= len(space))
	fmt.Printf("EDP optimum lies on the Pareto frontier: %v\n", onFront)
	// Output:
	// evaluated 9 design points
	// frontier is non-empty and within the space: true
	// EDP optimum lies on the Pareto frontier: true
}

// ExampleConfig_Validate shows the typed rejection of an impossible design
// point: sweep generators and services can pick out the offending field
// without string matching.
func ExampleConfig_Validate() {
	cfg := gem5aladdin.DefaultConfig()
	cfg.Mem = gem5aladdin.Cache
	cfg.CacheLineBytes = 48 // not a power of two

	err := cfg.Validate()
	var ce *gem5aladdin.ConfigError
	if errors.As(err, &ce) {
		fmt.Printf("rejected field %s (value %v)\n", ce.Field, ce.Value)
	}
	// Output:
	// rejected field CacheLineBytes (value 48)
}
