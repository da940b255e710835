package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of xs with the
// exclusive method Python's statistics.quantiles(xs, n=4) uses, so the
// spreads this program prints are the ones the acceptance rule computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	s := sorted(xs)
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based axis; like Python, the index is
		// clamped into the data but the weight is not, so very short
		// inputs extrapolate.
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		rem := k*(n+1) - j*4
		return (s[j-1]*float64(4-rem) + s[j]*float64(rem)) / 4
	}
	return at(1), at(3), nil
}

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the value is one scheduling hiccup away from the maximum.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It refuses a percentile with fewer than minBeyond samples above it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of range (0,100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples leaves %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// summary is one metric aggregated over the repetitions of a run: the
// headline value, the quartiles of the per-repetition values and how many
// samples stand behind it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	// N is the repetition count for a throughput metric and the pooled
	// sample count for a latency metric.
	N int `json:"n"`
}

// spread is the interquartile distance as a share of the value.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

// quietShare is the share of a run's repetitions its metrics are read
// from: the quietest tenth. On a shared host other tenants only ever slow
// a repetition down, one vCPU at a time and for seconds to minutes at a
// stretch; over ten minutes of mine_leela on the recording host, cut into
// twenty 30-second runs, the median over repetitions spread by 24 %
// (interquartile distance over median), the quietest fifth by 17 %, the
// quietest tenth of per-session repetitions by 9 %. A change to the program
// moves every repetition, the quiet ones included.
const quietShare = 0.1

// quietest returns how many of n repetitions count as quiet.
func quietest(n int) int {
	return max(1, int(math.Ceil(float64(n)*quietShare)))
}

// aggregateReps summarises a throughput metric: the mean of the quietest
// (highest) tenth of the per-repetition values, with their quartiles.
func aggregateReps(reps []float64, unit string) (summary, error) {
	if len(reps) == 0 {
		return summary{}, fmt.Errorf("no repetitions to aggregate")
	}
	s := sorted(reps)
	best := s[len(s)-quietest(len(s)):]
	var sum float64
	for _, v := range best {
		sum += v
	}
	return withQuartiles(summary{Value: sum / float64(len(best)), Unit: unit, N: len(reps)}, best), nil
}

// withQuartiles fills in the quartiles of vals, or the value itself where
// vals are too few to have any.
func withQuartiles(s summary, vals []float64) summary {
	s.Q1, s.Q3 = s.Value, s.Value
	if len(vals) >= 2 {
		s.Q1, s.Q3, _ = quartiles(vals)
	}
	return s
}

// aggregateSetups summarises set-up time: the median of the set-ups of a
// run, with their quartiles.
func aggregateSetups(times []float64) summary {
	return withQuartiles(summary{Value: median(times), Unit: "s", N: len(times)}, times)
}

// aggregateLatency summarises a latency metric: the p-th percentile of
// the samples of the quietest tenth of the repetitions (those with the
// lowest median), pooled — or of as many more of the quietest as it takes
// for the pool to support the percentile — with the quartiles of the same
// percentile taken per selected repetition where its samples support it.
func aggregateLatency(reps [][]float64, p float64, unit string) (summary, error) {
	type rep struct {
		median  float64
		samples []float64
	}
	var all []rep
	for _, r := range reps {
		if len(r) > 0 {
			all = append(all, rep{median(r), r})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].median < all[j].median })
	if len(all) == 0 {
		return summary{}, fmt.Errorf("no latency samples")
	}
	var pool, perRep []float64
	var v float64
	err := fmt.Errorf("no repetitions")
	for i, r := range all {
		if i >= quietest(len(all)) && err == nil {
			break
		}
		pool = append(pool, r.samples...)
		if rv, rerr := percentile(r.samples, p); rerr == nil {
			perRep = append(perRep, rv)
		}
		v, err = percentile(pool, p)
	}
	if err != nil {
		return summary{}, err
	}
	return withQuartiles(summary{Value: v, Unit: unit, N: len(pool)}, perRep), nil
}
