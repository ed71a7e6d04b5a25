// Package stats provides the small numeric helpers used by the metrics and
// experiment packages: means, percentiles, correlation and histogram
// binning. Everything works on float64 slices and is deterministic.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, 0 for an empty slice.
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

// Sum returns the total of the slice.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. Empty input yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Max returns the largest value, 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// PearsonR returns the Pearson correlation coefficient of the paired
// samples, or 0 when undefined (fewer than 2 points or zero variance).
func PearsonR(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs[:n]), Mean(ys[:n])
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// LogBins builds n logarithmically spaced bin edges covering [lo, hi].
// lo must be > 0 and hi > lo; the returned slice has n+1 edges.
func LogBins(lo, hi float64, n int) []float64 {
	if n < 1 || lo <= 0 || hi <= lo {
		return nil
	}
	edges := make([]float64, n+1)
	ratio := math.Pow(hi/lo, 1/float64(n))
	edges[0] = lo
	for i := 1; i <= n; i++ {
		edges[i] = edges[i-1] * ratio
	}
	edges[n] = hi
	return edges
}

// BinIndex returns the bin (0..len(edges)-2) containing x, clamping values
// outside the edge range to the first/last bin. Returns -1 when edges has
// fewer than 2 entries.
func BinIndex(edges []float64, x float64) int {
	if len(edges) < 2 {
		return -1
	}
	if x <= edges[0] {
		return 0
	}
	if x >= edges[len(edges)-1] {
		return len(edges) - 2
	}
	i := sort.SearchFloat64s(edges, x)
	// SearchFloat64s returns the first edge >= x; the bin is the one before.
	if i > 0 {
		i--
	}
	if i > len(edges)-2 {
		i = len(edges) - 2
	}
	return i
}

// GroupMedians bins xs by BinIndex over edges and returns per-bin medians of
// the paired ys values (NaN for empty bins).
func GroupMedians(edges, xs, ys []float64) []float64 {
	nb := len(edges) - 1
	if nb < 1 {
		return nil
	}
	groups := make([][]float64, nb)
	for i := range xs {
		b := BinIndex(edges, xs[i])
		if b >= 0 {
			groups[b] = append(groups[b], ys[i])
		}
	}
	out := make([]float64, nb)
	for i, g := range groups {
		if len(g) == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = Median(g)
	}
	return out
}
