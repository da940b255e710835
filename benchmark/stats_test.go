package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 1, 1000}, 10},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), worked
// by hand: position k(n+1)/4 on a 1-based axis, linear between neighbours.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 2, 6},                 // positions 2 and 6 exactly
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25}, // positions 2.75 and 8.25
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},                // positions 1.25 and 3.75
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},                   // unsorted; positions 1.5 and 4.5
		{[]float64{1, 2}, 0.75, 2.25},                          // two points extrapolate, as Python does
		{[]float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 2, 2},        // no spread
		{[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 100}, 1, 1},      // one outlier stays outside the quartiles
		{[]float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}, 101.75, 107.25},
	}
	for _, c := range cases {
		q1, q3, err := quartiles(c.in)
		if err != nil || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.in, q1, q3, err, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value must fail")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64 // 0 = must be refused
	}{
		{100, 50, 50},   // nearest rank ceil(0.5*100) = 50
		{100, 89, 89},   // 11 beyond
		{100, 90, 90},   // exactly 10 beyond
		{100, 91, 0},    // 9 beyond: refused
		{200, 95, 190},  // 10 beyond
		{199, 95, 0},    // rank 190 of 199 leaves 9
		{1000, 99, 990}, // 10 beyond
		{999, 99, 0},
		{21, 50, 11}, // ceil(10.5) = 11, 10 beyond
		{20, 50, 10},
		{19, 50, 0},
		{5, 50, 0},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%v of %d samples = %v, want a refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
	for _, p := range []float64{0, 100, -1, 101} {
		if _, err := percentile(seq(1000), p); err == nil {
			t.Errorf("percentile %v must be refused", p)
		}
	}
}

func TestQuietest(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 1, 10: 1, 11: 2, 20: 2, 30: 3, 31: 4, 120: 12} {
		if got := quietest(n); got != want {
			t.Errorf("quietest(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAggregateReps(t *testing.T) {
	// Twenty repetitions: the quietest tenth are the two highest, 104 and
	// 110; slow repetitions at the bottom change nothing.
	s, err := aggregateReps([]float64{100, 104, 96, 102, 98, 60, 110, 99, 101, 55, 100, 103, 96, 102, 98, 60, 90, 99, 101, 55}, "1/s")
	if err != nil || s.Value != 107 || s.Unit != "1/s" || s.N != 20 {
		t.Errorf("aggregateReps = %+v, %v", s, err)
	}
	// Quartiles of [104, 110] as Python extrapolates them: 102.5, 111.5.
	if !near(s.Q1, 102.5) || !near(s.Q3, 111.5) || !near(s.spread(), 9.0/107) {
		t.Errorf("quartiles %v %v spread %v", s.Q1, s.Q3, s.spread())
	}
	one, err := aggregateReps([]float64{42, 40, 41}, "1/s")
	if err != nil || one.Value != 42 || one.Q1 != 42 || one.Q3 != 42 || one.spread() != 0 {
		t.Errorf("three repetitions keep the best one: %+v, %v", one, err)
	}
	if _, err := aggregateReps(nil, "s"); err == nil {
		t.Error("no repetitions must fail")
	}
}

func TestAggregateSetups(t *testing.T) {
	s := aggregateSetups([]float64{1.5, 0.9, 1.0})
	if s.Value != 1.0 || s.Unit != "s" || s.N != 3 || !near(s.Q1, 0.9) || !near(s.Q3, 1.5) {
		t.Errorf("aggregateSetups = %+v", s)
	}
}

func TestAggregateLatency(t *testing.T) {
	// Twenty repetitions of 300 samples 1..300, the i-th shifted by 10i:
	// the quietest tenth are shifts 0 and 10, pooled 600 samples. Their p50
	// is the 300th smallest: 1..10 once, then pairs, so value 155; per
	// repetition it is 150 and 160.
	var reps [][]float64
	for i := 19; i >= 0; i-- {
		r := seq(300)
		for k := range r {
			r[k] += float64(10 * i)
		}
		reps = append(reps, r)
	}
	s, err := aggregateLatency(reps, 50, "us")
	if err != nil || s.Value != 155 || s.N != 600 || !near(s.Q1, 147.5) || !near(s.Q3, 162.5) {
		t.Errorf("aggregateLatency p50 = %+v, %v", s, err)
	}
	// Repetitions too short for a p95 of their own: the quietest tenth
	// (one of five, 100 samples) cannot carry it, so the next quietest
	// join until the pool can (200 samples leave 10 beyond).
	reps = reps[:0]
	for i := 0; i < 5; i++ {
		r := seq(100)
		for k := range r {
			r[k] += float64(1000 * i)
		}
		reps = append(reps, r)
	}
	s, err = aggregateLatency(reps, 95, "us")
	if err != nil || s.N != 200 || s.Value != 1090 {
		t.Errorf("aggregateLatency p95 = %+v, %v", s, err)
	}
	if _, err := aggregateLatency([][]float64{seq(50), seq(50)}, 95, "us"); err == nil {
		t.Error("p95 of 100 samples in all must be refused")
	}
	if _, err := aggregateLatency(nil, 50, "us"); err == nil {
		t.Error("no samples must fail")
	}
}
