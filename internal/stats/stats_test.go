package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Min returns the smallest value, 0 for an empty slice: the lower bound
// TestQuickProperties holds Percentile to.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func TestMeanSumMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if !almost(Mean(xs), 2.5) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !almost(Sum(xs), 10) {
		t.Errorf("Sum = %v", Sum(xs))
	}
	if !almost(Median(xs), 2.5) {
		t.Errorf("Median = %v", Median(xs))
	}
	if !almost(Median([]float64{1, 2, 9}), 2) {
		t.Errorf("odd median = %v", Median([]float64{1, 2, 9}))
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty aggregates should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {10, 14},
	}
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); !almost(got, tc.want) {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(xs, -5); got != 10 {
		t.Errorf("clamped low percentile = %v", got)
	}
	if got := Percentile(xs, 150); got != 50 {
		t.Errorf("clamped high percentile = %v", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty min/max should be 0")
	}
}

func TestPearsonR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := PearsonR(xs, ys); !almost(got, 1) {
		t.Errorf("perfect correlation = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := PearsonR(xs, neg); !almost(got, -1) {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	flat := []float64{5, 5, 5, 5, 5}
	if got := PearsonR(xs, flat); got != 0 {
		t.Errorf("zero variance should give 0, got %v", got)
	}
	if PearsonR([]float64{1}, []float64{2}) != 0 {
		t.Error("single point should give 0")
	}
}

func TestLogBins(t *testing.T) {
	edges := LogBins(1, 1000, 3)
	if len(edges) != 4 {
		t.Fatalf("got %d edges, want 4", len(edges))
	}
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if math.Abs(edges[i]-want[i]) > 1e-6*want[i] {
			t.Errorf("edge %d = %v, want %v", i, edges[i], want[i])
		}
	}
	if LogBins(0, 10, 3) != nil || LogBins(10, 5, 3) != nil || LogBins(1, 10, 0) != nil {
		t.Error("invalid inputs should return nil")
	}
}

func TestBinIndex(t *testing.T) {
	edges := []float64{1, 10, 100, 1000}
	cases := []struct {
		x    float64
		want int
	}{
		{0.5, 0}, {1, 0}, {5, 0}, {10, 0}, {11, 1}, {99, 1}, {500, 2}, {1000, 2}, {5000, 2},
	}
	for _, tc := range cases {
		if got := BinIndex(edges, tc.x); got != tc.want {
			t.Errorf("BinIndex(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if BinIndex([]float64{1}, 5) != -1 {
		t.Error("single edge should be invalid")
	}
}

func TestGroupMedians(t *testing.T) {
	edges := []float64{0, 10, 20}
	xs := []float64{1, 2, 15, 16, 17}
	ys := []float64{100, 200, 1, 2, 3}
	med := GroupMedians(edges, xs, ys)
	if len(med) != 2 {
		t.Fatalf("got %d bins", len(med))
	}
	if !almost(med[0], 150) {
		t.Errorf("bin 0 median = %v", med[0])
	}
	if !almost(med[1], 2) {
		t.Errorf("bin 1 median = %v", med[1])
	}
	empty := GroupMedians([]float64{0, 1, 2}, []float64{0.5}, []float64{9})
	if !math.IsNaN(empty[1]) {
		t.Errorf("empty bin should be NaN, got %v", empty[1])
	}
}

func TestQuickProperties(t *testing.T) {
	percentileWithinRange := func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pp := math.Mod(math.Abs(p), 100)
		v := Percentile(xs, pp)
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(percentileWithinRange, nil); err != nil {
		t.Error(err)
	}
}
