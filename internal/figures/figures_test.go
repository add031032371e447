package figures

import (
	"context"
	"os"
	"strings"
	"testing"

	"gem5aladdin/internal/dse"
)

// testEv is the evaluator the package's figure tests share, so a point one
// test simulated is a memory hit for the next. The golden regeneration
// holds one of its own.
var testEv *dse.Evaluator

func TestMain(m *testing.M) {
	testEv = dse.NewEvaluator(dse.EvaluatorOptions{})
	code := m.Run()
	testEv.Close(context.Background())
	os.Exit(code)
}

// run invokes a figure generator in quick mode and returns its output.
func run(t *testing.T, fn func(*strings.Builder) error) string {
	t.Helper()
	var b strings.Builder
	if err := fn(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if len(out) == 0 {
		t.Fatal("no output")
	}
	return out
}

func TestFig1(t *testing.T) {
	out := run(t, func(b *strings.Builder) error { return Fig1(b, testEv, true) })
	if !strings.Contains(out, "EDP optimal") {
		t.Fatal("no EDP optimum marked")
	}
	if !strings.Contains(out, "isolated") || !strings.Contains(out, "dma") {
		t.Fatal("missing design spaces")
	}
}

func TestFig2a(t *testing.T) {
	out := run(t, func(b *strings.Builder) error { return Fig2a(b, testEv) })
	for _, want := range []string{"flush", "dma", "compute", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig2b(t *testing.T) {
	out := run(t, func(b *strings.Builder) error { return Fig2b(b, testEv) })
	if strings.Count(out, "\n") < 13 {
		t.Fatalf("expected one row per benchmark:\n%s", out)
	}
}

func TestFig3(t *testing.T) {
	out := run(t, func(b *strings.Builder) error { return Fig3(b) })
	for _, want := range []string{"84 ns/line", "71 ns/line", "MSHRs", "32, 64 b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestFig4(t *testing.T) {
	out := run(t, func(b *strings.Builder) error { return Fig4(b, testEv) })
	if !strings.Contains(out, "average") {
		t.Fatal("no average row")
	}
}

func TestFig6a(t *testing.T) {
	out := run(t, func(b *strings.Builder) error { return Fig6a(b, testEv) })
	for _, want := range []string{"baseline", "+pipelined", "+triggered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestFig6b(t *testing.T) {
	out := run(t, func(b *strings.Builder) error { return Fig6b(b, testEv, true) })
	if !strings.Contains(out, "speedup") {
		t.Fatal("missing speedup column")
	}
}

func TestFig7(t *testing.T) {
	out := run(t, func(b *strings.Builder) error { return Fig7(b, testEv, true) })
	for _, want := range []string{"processing", "latency", "bandwidth"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestFig8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	out := run(t, func(b *strings.Builder) error { return Fig8(b, testEv, true) })
	if strings.Count(out, "* EDP optimal") < 8 {
		t.Fatalf("expected an EDP star per benchmark and memsys:\n%s", out)
	}
}

func TestFig9And10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	out9 := run(t, func(b *strings.Builder) error { return Fig9(b, testEv, true) })
	if !strings.Contains(out9, "cache-64b") {
		t.Fatal("missing 64-bit scenario")
	}
	out10 := run(t, func(b *strings.Builder) error { return Fig10(b, testEv, true) })
	if !strings.Contains(out10, "average") {
		t.Fatal("missing average row")
	}
}

func TestGraphUnknown(t *testing.T) {
	if _, err := Graph("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestGraphMemoized(t *testing.T) {
	a, err := Graph("kmp-kmp")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Graph("kmp-kmp")
	if a != b {
		t.Fatal("graph not memoized")
	}
}

func TestSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	out := run(t, func(b *strings.Builder) error { return Summary(b, testEv, true) })
	for _, want := range []string{"validation error", "EDP improvement", "geomean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestFig5(t *testing.T) {
	out := run(t, func(b *strings.Builder) error { return Fig5(b, testEv) })
	for _, want := range []string{"baseline", "+pipelined dma", "+dma-triggered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
	// Each variant's bar is present and the triggered bar shows overlap.
	if !strings.Contains(out, "O") {
		t.Fatalf("no overlap segment in:\n%s", out)
	}
}
