package geo

import "math"

// CircularMean returns the mean direction of a set of angles using the
// standard vector-sum definition, normalised to [0, 2π). The mean of an
// empty set is 0.
func CircularMean(angles []float64) float64 {
	var sx, sy float64
	for _, a := range angles {
		sin, cos := math.Sincos(a)
		sx += cos
		sy += sin
	}
	return CircularMeanFromSums(sx, sy, len(angles))
}

// CircularMeanFromSums returns the circular mean for precomputed Σcos and
// Σsin over n angles, for hot paths that cache the per-angle trigonometric
// terms. It matches CircularMean bit for bit given sums accumulated in the
// same order.
func CircularMeanFromSums(sx, sy float64, n int) float64 {
	if n == 0 {
		return 0
	}
	if sx == 0 && sy == 0 {
		return 0
	}
	return NormalizeAngle(math.Atan2(sy, sx))
}

// CircularVariance returns the circular variance 1 - R̄ of a set of angles,
// where R̄ is the mean resultant length. The result is in [0, 1]: 0 means
// all angles are identical, 1 means the angles cancel out completely.
// The variance of an empty set is 0.
func CircularVariance(angles []float64) float64 {
	var sx, sy float64
	for _, a := range angles {
		sin, cos := math.Sincos(a)
		sx += cos
		sy += sin
	}
	return CircularVarianceFromSums(sx, sy, len(angles))
}

// CircularVarianceFromSums returns the circular variance for precomputed
// Σcos and Σsin over n angles. It matches CircularVariance bit for bit
// given sums accumulated in the same order.
func CircularVarianceFromSums(sx, sy float64, n int) float64 {
	if n == 0 {
		return 0
	}
	r := math.Hypot(sx, sy) / float64(n)
	v := 1 - r
	// Guard against negative zero and tiny negative rounding artefacts.
	if v < 0 {
		v = 0
	}
	return v
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}
