package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile for
// it to describe a tail rather than a single outlier.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs
// and whether the sample supports it: at least minTail samples must lie
// strictly beyond the rank it returns.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	s := sorted(xs)
	return s[rank-1], n-rank >= minTail
}

// geomean is the geometric mean of positive values; it returns 0 when xs
// is empty or holds a non-positive value, which no latency can be.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so a spread printed here matches one computed from
// the same values with Python. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const groups = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / groups
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*groups
		return (s[j-1]*float64(groups-delta) + s[j]*float64(delta)) / groups
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// samples holds latency samples (ms) kept apart per operation type, so no
// two metrics can be computed from one mixed sample set by accident.
type samples map[string][]float64

func (s samples) add(kind string, ms float64) { s[kind] = append(s[kind], ms) }

// cellMedians returns the median of every operation type, in key order.
func (s samples) cellMedians() []float64 {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = median(s[k])
	}
	return out
}

// tally counts the operations a run attempted and the ones that failed —
// by an engine error or by a wrong output.
type tally struct {
	attempted, failed int
}

// record counts one operation; err is its engine error or output-check
// failure.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}
