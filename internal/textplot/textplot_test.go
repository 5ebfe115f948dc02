package textplot

import (
	"strings"
	"testing"
)

func TestChartBasics(t *testing.T) {
	out := Chart(Options{Title: "demo", XLabel: "walk", YLabel: "tv"},
		Series{Name: "a", X: []float64{1, 2, 3}, Y: []float64{3, 2, 1}},
		Series{Name: "b", X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}},
	)
	if !strings.Contains(out, "demo") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "* a") || !strings.Contains(out, "+ b") {
		t.Fatal("legend missing")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("markers missing from plot")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 20 {
		t.Fatalf("only %d lines", len(lines))
	}
}

func TestChartLogAxesDropNonPositive(t *testing.T) {
	out := Chart(Options{LogY: true},
		Series{Name: "s", X: []float64{0, 1, 10, 100}, Y: []float64{-1, 0.1, 0.01, 0.001}})
	if !strings.Contains(out, "s") {
		t.Fatal("series missing")
	}
	// Axis labels are back-transformed to linear values.
	if !strings.Contains(out, "0.1") {
		t.Fatalf("log axis label missing:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	out := Chart(Options{Title: "void"}, Series{Name: "x"})
	if !strings.Contains(out, "(no data)") {
		t.Fatalf("empty chart output %q", out)
	}
}

func TestChartConstantSeries(t *testing.T) {
	// Degenerate ranges must not divide by zero.
	out := Chart(Options{}, Series{Name: "c", X: []float64{1, 1}, Y: []float64{2, 2}})
	if !strings.Contains(out, "c") {
		t.Fatal("constant series lost")
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"name", "n"}, [][]string{{"wiki", "7066"}, {"dblp", "614981"}})
	if !strings.Contains(out, "name") || !strings.Contains(out, "dblp") {
		t.Fatalf("table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Fatalf("%d lines", len(lines))
	}
	// Columns aligned: both data rows have "n" values starting at the
	// same offset.
	if strings.Index(lines[2], "7066") != strings.Index(lines[3], "614981") {
		t.Fatal("columns not aligned")
	}
	if Table(nil, nil) != "" {
		t.Fatal("empty table not empty")
	}
	if out := Table(nil, [][]string{{"a", "b"}}); !strings.Contains(out, "a  b") {
		t.Fatalf("headerless table %q", out)
	}
}
