// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics, fixed-bin histograms, a
// normality check, and Kolmogorov–Smirnov distance. The paper's Figures 2
// and 3 are distributions of per-widget metrics; this package turns raw
// samples into the numbers and ASCII plots that
// `go run ./cmd/hcbench -run fig2,fig3` prints.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the usual moments and order statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
	P05    float64
	P95    float64
}

// Summarize computes a Summary of xs. It returns a zero Summary if xs is
// empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)

	var sum float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))

	var sq float64
	for _, x := range sorted {
		d := x - mean
		sq += d * d
	}
	sd := 0.0
	if len(sorted) > 1 {
		sd = math.Sqrt(sq / float64(len(sorted)-1))
	}

	return Summary{
		N:      len(sorted),
		Mean:   mean,
		StdDev: sd,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: Quantile(sorted, 0.5),
		P05:    Quantile(sorted, 0.05),
		P95:    Quantile(sorted, 0.95),
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation. It panics if sorted is empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram is a fixed-bin histogram over [Lo, Hi). Samples outside the
// range are clamped into the first/last bin so no data is silently lost.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram builds a histogram of xs with the given number of bins over
// [lo, hi). It panics if bins < 1 or hi <= lo.
func NewHistogram(xs []float64, bins int, lo, hi float64) *Histogram {
	if bins < 1 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram range is empty")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add inserts one sample.
func (h *Histogram) Add(x float64) {
	bins := len(h.Counts)
	idx := int(float64(bins) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	h.Counts[idx]++
	h.Total++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Render draws the histogram as ASCII art, one line per bin, with an
// optional marker line for a reference value (pass NaN for no marker).
// width is the maximum bar width in characters.
func (h *Histogram) Render(width int, reference float64) string {
	if width < 1 {
		width = 40
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	binWidth := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		lo := h.Lo + binWidth*float64(i)
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		marker := " "
		if !math.IsNaN(reference) && reference >= lo && reference < lo+binWidth {
			marker = "*"
		}
		fmt.Fprintf(&b, "%s[%8.4f, %8.4f) %5d |%s\n", marker, lo, lo+binWidth, c, strings.Repeat("#", bar))
	}
	if !math.IsNaN(reference) {
		fmt.Fprintf(&b, "  (* marks the bin containing the reference value %.4f)\n", reference)
	}
	return b.String()
}

// NormalCDF returns the standard normal cumulative distribution function.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// KSNormal returns the Kolmogorov–Smirnov distance between the empirical
// distribution of xs and a normal distribution fitted to its sample mean
// and standard deviation. Small values (roughly < 1.0/sqrt(n) scaled by the
// usual critical constants) indicate the sample is consistent with a
// Gaussian — the paper's Figure 2 describes the widget IPC distribution as
// "roughly Gaussian".
func KSNormal(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := Summarize(xs)
	if s.StdDev == 0 {
		return 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	maxD := 0.0
	for i, x := range sorted {
		f := NormalCDF((x - s.Mean) / s.StdDev)
		dPlus := (float64(i)+1)/n - f
		dMinus := f - float64(i)/n
		if dPlus > maxD {
			maxD = dPlus
		}
		if dMinus > maxD {
			maxD = dMinus
		}
	}
	return maxD
}

// KSTwoSample returns the two-sample Kolmogorov–Smirnov distance between
// xs and ys.
func KSTwoSample(xs, ys []float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return 0
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	var i, j int
	maxD := 0.0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			i++
		} else {
			j++
		}
		d := math.Abs(float64(i)/float64(len(a)) - float64(j)/float64(len(b)))
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

// Table is a minimal fixed-width text table writer for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
