package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted values: the
// smallest value with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median of unsorted values.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// stealLimit is the share of the machine's CPU time that the hypervisor
// may give to other guests while a sample is taken. A sample taken
// under more steal times the host rather than the program, so the
// medians set it aside; the run's steal is reported as host.steal_frac.
const stealLimit = 0.04

// cleanMedian is the median of the values whose steal share is under
// stealLimit, and how many values that was; when none is, it is the
// median of them all.
func cleanMedian(values, steal []float64) (float64, int) {
	var clean []float64
	for i, v := range values {
		if steal[i] < stealLimit {
			clean = append(clean, v)
		}
	}
	if len(clean) == 0 {
		return median(values), len(values)
	}
	return median(clean), len(clean)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
