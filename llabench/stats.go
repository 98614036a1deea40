package main

import (
	"math"
	"sort"
)

// tailLevels are the percentiles a tail may be reported at, lowest first.
var tailLevels = []float64{50, 90, 99, 99.9}

// beyond is the number of the n samples strictly above the nearest-rank
// percentile p.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error in p/100·n (99.9% of 10000 is
	// 9990.000000000002) from moving the rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLevel is the highest percentile of tailLevels that leaves at least ten
// samples beyond it, or 100 (the maximum) when even the median leaves fewer.
func tailLevel(n int) float64 {
	level := 100.0
	for _, p := range tailLevels {
		if beyond(n, p) >= 10 {
			level = p
		}
	}
	return level
}

// percentile returns the nearest-rank percentile p of xs (which it sorts in
// place), or NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median is percentile 50 computed on a copy, leaving xs in order.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// orZero maps the NaN of an empty sample to 0: a short run on a slow
// machine may reach no checkpoint, and a run may see no rebalancing move.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// tally counts operations attempted and failed, and keeps the reason of the
// first few failures for the report.
type tally struct {
	attempted int
	failed    int
	reasons   []string
}

// maxReasons bounds the failure reasons a tally keeps.
const maxReasons = 8

// record counts one operation; a non-empty reason marks it failed.
func (t *tally) record(reason string) {
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, reason)
	}
}

// add merges another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < maxReasons {
			t.reasons = append(t.reasons, r)
		}
	}
}

// frac is the failed share of attempted operations (0 when none ran).
func (t tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
