// Command figures regenerates the paper's tables and figures. Use -fig to
// select one (1, 2a, 2b, 3, 4, 6a, 6b, 7, 8, 9, 10) or "all", and -full
// for the complete Fig 3 parameter sweeps (slower; the default quick mode
// prunes sweep axes). Every figure evaluates on one evaluator, so a design
// point that several figures read simulates once per run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/figures"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (1, 2a, 2b, 3, 4, 6a, 6b, 7, 8, 9, 10, all)")
	full := flag.Bool("full", false, "run the full Fig 3 parameter sweeps")
	flag.Parse()

	quick := !*full
	w := os.Stdout
	ev := dse.NewEvaluator(dse.EvaluatorOptions{})
	defer ev.Close(context.Background())
	gens := map[string]func() error{
		"1":       func() error { return figures.Fig1(w, ev, quick) },
		"2a":      func() error { return figures.Fig2a(w, ev) },
		"2b":      func() error { return figures.Fig2b(w, ev) },
		"3":       func() error { return figures.Fig3(w) },
		"4":       func() error { return figures.Fig4(w, ev) },
		"5":       func() error { return figures.Fig5(w, ev) },
		"6a":      func() error { return figures.Fig6a(w, ev) },
		"6b":      func() error { return figures.Fig6b(w, ev, quick) },
		"7":       func() error { return figures.Fig7(w, ev, quick) },
		"8":       func() error { return figures.Fig8(w, ev, quick) },
		"9":       func() error { return figures.Fig9(w, ev, quick) },
		"10":      func() error { return figures.Fig10(w, ev, quick) },
		"summary": func() error { return figures.Summary(w, ev, quick) },
	}
	order := []string{"1", "2a", "2b", "3", "4", "5", "6a", "6b", "7", "8", "9", "10", "summary"}

	run := func(name string) {
		gen, ok := gens[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q; have %v\n", name, order)
			os.Exit(2)
		}
		start := time.Now()
		if err := gen(); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[figure %s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *fig == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	run(*fig)
}
