// Package textplot renders data series as ASCII charts and aligned
// tables, so the experiment binaries can reproduce the paper's
// figures directly in a terminal without any plotting dependency.
//
// Chart plots one or more Series into a fixed-size rune grid with
// distinct per-series glyphs, a linear or logarithmic y axis, and a
// legend — enough to reproduce the shape of the paper's
// ε-vs-walk-length curves (Figures 1–2) and CDFs (Figures 3–4).
// Table lays out rows with per-column alignment for the Table-1 style
// artifacts. Output is deterministic for identical input, which is
// what lets paperfigs promise byte-identical runs: charts contain no
// timestamps, addresses, or map-ordered iteration.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one plotted line.
type Series struct {
	Name string
	X, Y []float64
}

// markers distinguish series in a chart.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&', '$', '~', '^', '='}

// Options configures a chart.
type Options struct {
	Title  string
	XLabel string
	YLabel string
	// LogY selects a logarithmic y axis; non-positive values are
	// dropped.
	LogY bool
}

// The plot area of every chart is chartWidth×chartHeight characters.
const (
	chartWidth  = 72
	chartHeight = 20
)

// Chart renders the series into a multi-line string.
func Chart(opt Options, series ...Series) string {
	ty := func(v float64) (float64, bool) { return v, true }
	if opt.LogY {
		ty = logT
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		for i, x := range s.X {
			y, ok := ty(s.Y[i])
			if !ok || math.IsInf(y, 0) || math.IsNaN(y) {
				continue
			}
			any = true
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if !any {
		return opt.Title + "\n(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	w, h := chartWidth, chartHeight
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i, x := range s.X {
			y, ok := ty(s.Y[i])
			if !ok || math.IsInf(y, 0) || math.IsNaN(y) {
				continue
			}
			col := int(float64(w-1) * (x - minX) / (maxX - minX))
			row := h - 1 - int(float64(h-1)*(y-minY)/(maxY-minY))
			if col >= 0 && col < w && row >= 0 && row < h {
				grid[row][col] = mark
			}
		}
	}

	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	yHi, yLo := invLabel(maxY, opt.LogY), invLabel(minY, opt.LogY)
	for r, row := range grid {
		label := "          "
		switch r {
		case 0:
			label = fmt.Sprintf("%10s", yHi)
		case h - 1:
			label = fmt.Sprintf("%10s", yLo)
		case h / 2:
			if opt.YLabel != "" {
				label = fmt.Sprintf("%10s", trunc(opt.YLabel, 10))
			}
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, row)
	}
	fmt.Fprintf(&b, "%10s +%s+\n", "", strings.Repeat("-", w))
	xHi, xLo := fmt.Sprintf("%.3g", maxX), fmt.Sprintf("%.3g", minX)
	pad := w - len(xLo) - len(xHi)
	if pad < 1 {
		pad = 1
	}
	mid := opt.XLabel
	if len(mid) > pad {
		mid = trunc(mid, pad)
	}
	lpad := (pad - len(mid)) / 2
	rpad := pad - len(mid) - lpad
	fmt.Fprintf(&b, "%10s  %s%s%s%s%s\n", "", xLo,
		strings.Repeat(" ", lpad), mid, strings.Repeat(" ", rpad), xHi)
	// Legend.
	for si, s := range series {
		fmt.Fprintf(&b, "%10s  %c %s\n", "", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

func logT(v float64) (float64, bool) {
	if v <= 0 {
		return 0, false
	}
	return math.Log10(v), true
}

func invLabel(v float64, log bool) string {
	if log {
		v = math.Pow(10, v)
	}
	return fmt.Sprintf("%.3g", v)
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "…"
}

// Table renders rows as an aligned text table. header may be nil.
func Table(header []string, rows [][]string) string {
	all := rows
	if header != nil {
		all = append([][]string{header}, rows...)
	}
	if len(all) == 0 {
		return ""
	}
	widths := make([]int, 0)
	for _, row := range all {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	if header != nil {
		writeRow(header)
		total := 0
		for _, w := range widths {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
		b.WriteByte('\n')
	}
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
