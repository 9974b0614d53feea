// Package metrics provides the statistics the paper's validation uses:
// means and deviations of quanta distributions (Fig. 7),
// root-mean-square percentage skew between sampled traces (Fig. 17),
// percentage error between physical and emulated runs (Figs. 10–16), and
// linear regression for the memory micro-benchmark (Fig. 5).
package metrics

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Normalize scales xs so its mean is 1 (as in the paper's quanta-size
// histogram). An all-zero input is returned unchanged.
func Normalize(xs []float64) []float64 {
	m := Mean(xs)
	out := make([]float64, len(xs))
	if m == 0 {
		copy(out, xs)
		return out
	}
	for i, x := range xs {
		out[i] = x / m
	}
	return out
}

// PercentError returns 100·|measured−reference|/reference. A zero
// reference with nonzero measurement reports +Inf.
func PercentError(measured, reference float64) float64 {
	if reference == 0 {
		if measured == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * math.Abs(measured-reference) / math.Abs(reference)
}

// RMSPercentDiff is the paper's internal-validation skew metric (Fig. 17):
// the root mean square of the percentage difference recorded at each
// sample, against the reference trace. Samples where the reference is zero
// are skipped. Traces must have equal length.
func RMSPercentDiff(measured, reference []float64) (float64, error) {
	if len(measured) != len(reference) {
		return 0, fmt.Errorf("metrics: trace lengths differ (%d vs %d)", len(measured), len(reference))
	}
	s, n := 0.0, 0
	for i := range reference {
		if reference[i] == 0 {
			continue
		}
		d := 100 * (measured[i] - reference[i]) / reference[i]
		s += d * d
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return math.Sqrt(s / float64(n)), nil
}

// LinearFit returns slope and intercept of the least-squares line through
// (x, y) points, for the Fig. 5 linearity check.
func LinearFit(x, y []float64) (slope, intercept float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, fmt.Errorf("metrics: need ≥2 paired points, got %d/%d", len(x), len(y))
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return 0, 0, fmt.Errorf("metrics: degenerate x values")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	return slope, intercept, nil
}
