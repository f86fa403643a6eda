package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks, or 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidate tail percentiles, lowest first.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest candidate percentile that still
// has at least ten of n samples beyond it, or 0 when even the median
// does not: a tail quoted from fewer samples is one or two outliers.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-6 { // slack for 100-p in binary
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile of xs and an error when the
// samples cannot support it under the tailPercentile rule.
func percentile(xs []float64, p float64) (float64, error) {
	if tailPercentile(len(xs)) < p {
		return 0, fmt.Errorf("p%g needs at least ten samples beyond it, have %d samples", p, len(xs))
	}
	return quantile(xs, p/100), nil
}

// metricName is the benchmark's metric-name grammar: a letter or digit
// first, then at most 63 letters, digits, '_', '.' or '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name follows the metric-name grammar.
func validMetricName(name string) bool { return metricName.MatchString(name) }
