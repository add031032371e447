package figures

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"

	"gem5aladdin/internal/dse"
)

// TestRegeneratedFiguresMatchCommittedOutput regenerates every figure in
// quick mode and compares against the committed figures_output.txt, with
// the wall-clock "[figure N regenerated in ...]" lines (and their trailing
// blanks) stripped. Any numeric drift in a figure is a regression — the
// committed file is the reproduction's reference point.
//
// All 13 generators run on one fresh evaluator, and every distinct point
// must simulate exactly once: a figure that bypassed the evaluator would
// count fewer simulations, and one that re-simulated a point more.
func TestRegeneratedFiguresMatchCommittedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure regeneration in short mode")
	}
	raw, err := os.ReadFile("../../figures_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	skipBlank := false
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "[figure ") {
			skipBlank = true
			continue
		}
		if skipBlank && strings.TrimSpace(line) == "" {
			skipBlank = false
			continue
		}
		skipBlank = false
		want.WriteString(line)
	}

	ev := dse.NewEvaluator(dse.EvaluatorOptions{})
	defer ev.Close(context.Background())
	gens := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"1", func(w io.Writer) error { return Fig1(w, ev, true) }},
		{"2a", func(w io.Writer) error { return Fig2a(w, ev) }},
		{"2b", func(w io.Writer) error { return Fig2b(w, ev) }},
		{"3", Fig3},
		{"4", func(w io.Writer) error { return Fig4(w, ev) }},
		{"5", func(w io.Writer) error { return Fig5(w, ev) }},
		{"6a", func(w io.Writer) error { return Fig6a(w, ev) }},
		{"6b", func(w io.Writer) error { return Fig6b(w, ev, true) }},
		{"7", func(w io.Writer) error { return Fig7(w, ev, true) }},
		{"8", func(w io.Writer) error { return Fig8(w, ev, true) }},
		{"9", func(w io.Writer) error { return Fig9(w, ev, true) }},
		{"10", func(w io.Writer) error { return Fig10(w, ev, true) }},
		{"summary", func(w io.Writer) error { return Summary(w, ev, true) }},
	}
	var got strings.Builder
	for _, g := range gens {
		if err := g.fn(&got); err != nil {
			t.Fatalf("figure %s: %v", g.name, err)
		}
	}
	// The quick figures evaluate 509 distinct (kernel, config) points.
	if n := ev.Stats().Simulated; n != 509 {
		t.Errorf("regeneration simulated %d points, want 509: one simulation per distinct point", n)
	}

	if got.String() != want.String() {
		gl := strings.Split(got.String(), "\n")
		wl := strings.Split(want.String(), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("figure output diverges from figures_output.txt at line %d:\n got: %q\nwant: %q\n(regenerate with: go run ./cmd/figures > figures_output.txt)",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("figure output length differs: got %d lines, want %d (regenerate with: go run ./cmd/figures > figures_output.txt)",
			len(gl), len(wl))
	}
}
