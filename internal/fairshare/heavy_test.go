package fairshare

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func trackerWithUsage(usages map[int]float64) *Tracker {
	tr := NewTracker(DefaultConfig(), 0)
	for u, v := range usages {
		tr.Charge(u, v)
	}
	return tr
}

// heavy applies a classifier the way the starvation component does: user is
// heavy iff its usage exceeds the classifier's threshold.
func heavy(c HeavyClassifier, tr *Tracker, user int, live []int) bool {
	return tr.Usage(user) > c.Threshold(tr, live)
}

func TestAboveMean(t *testing.T) {
	tr := trackerWithUsage(map[int]float64{1: 100, 2: 50, 3: 0})
	live := []int{1, 2, 3}
	c := AboveMean{}
	if !heavy(c, tr, 1, live) {
		t.Error("user 1 (100 vs mean 50) should be heavy")
	}
	if heavy(c, tr, 2, live) {
		t.Error("user 2 (50 = mean) should not be heavy")
	}
	if heavy(c, tr, 3, live) {
		t.Error("user 3 (0) should not be heavy")
	}
}

func TestAboveMeanFactor(t *testing.T) {
	tr := trackerWithUsage(map[int]float64{1: 100, 2: 50, 3: 0})
	live := []int{1, 2, 3}
	c := AboveMean{Factor: 3}
	if heavy(c, tr, 1, live) {
		t.Error("factor 3 raises the bar to 150; user 1 at 100 is not heavy")
	}
}

func TestAboveMeanEdgeCases(t *testing.T) {
	tr := trackerWithUsage(nil)
	c := AboveMean{}
	if heavy(c, tr, 1, nil) {
		t.Error("no live users: no one is heavy")
	}
	if heavy(c, tr, 1, []int{1, 2}) {
		t.Error("zero mean: no one is heavy")
	}
}

func TestAboveQuantile(t *testing.T) {
	tr := trackerWithUsage(map[int]float64{1: 10, 2: 20, 3: 30, 4: 40, 5: 1000})
	live := []int{1, 2, 3, 4, 5}
	c := AboveQuantile{Q: 0.75}
	if !heavy(c, tr, 5, live) {
		t.Error("top user should be heavy at q=0.75")
	}
	if heavy(c, tr, 1, live) {
		t.Error("bottom user should not be heavy")
	}
	// Default quantile when Q invalid.
	d := AboveQuantile{}
	if !heavy(d, tr, 5, live) {
		t.Error("default quantile should still flag the top user")
	}
}

func TestAboveAbsolute(t *testing.T) {
	tr := trackerWithUsage(map[int]float64{1: 100})
	c := AboveAbsolute{ProcSeconds: 50}
	if !heavy(c, tr, 1, nil) {
		t.Error("usage 100 > 50 should be heavy")
	}
	if heavy(c, tr, 2, nil) {
		t.Error("unknown user should not be heavy")
	}
}

func TestNever(t *testing.T) {
	tr := trackerWithUsage(map[int]float64{1: 1e12})
	if heavy(Never{}, tr, 1, []int{1}) {
		t.Error("Never classified someone as heavy")
	}
}

func TestClassifierNames(t *testing.T) {
	names := map[string]HeavyClassifier{
		"above-mean":     AboveMean{},
		"above-quantile": AboveQuantile{},
		"above-absolute": AboveAbsolute{},
		"never":          Never{},
	}
	for want, c := range names {
		if c.Name() != want {
			t.Errorf("Name() = %q, want %q", c.Name(), want)
		}
	}
}

// refIsHeavy is the per-user classification the threshold form replaced,
// kept as the reference the equivalence test compares against.
func refIsHeavy(c HeavyClassifier, tr *Tracker, user int, live []int) bool {
	switch c := c.(type) {
	case AboveMean:
		f := c.Factor
		if f <= 0 {
			f = 1.0
		}
		if len(live) == 0 {
			return false
		}
		var sum float64
		for _, u := range live {
			sum += tr.Usage(u)
		}
		mean := sum / float64(len(live))
		if mean <= 0 {
			return false
		}
		return tr.Usage(user) > f*mean
	case AboveQuantile:
		q := c.Q
		if q <= 0 || q >= 1 {
			q = 0.75
		}
		if len(live) == 0 {
			return false
		}
		us := make([]float64, 0, len(live))
		for _, u := range live {
			us = append(us, tr.Usage(u))
		}
		sort.Float64s(us)
		threshold := us[int(q*float64(len(us)-1))]
		if threshold <= 0 {
			return false
		}
		return tr.Usage(user) > threshold
	case AboveAbsolute:
		return tr.Usage(user) > c.ProcSeconds
	case Never:
		return false
	}
	panic("unknown classifier")
}

// TestQuickThresholdMatchesPerUserRule: for random trackers and live sets,
// comparing a user's usage against the once-per-pass threshold classifies
// exactly as the per-user rule did, for all four classifiers and for users
// inside and outside the live set.
func TestQuickThresholdMatchesPerUserRule(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker(DefaultConfig(), 0)
		const users = 12
		for u := 0; u < users; u++ {
			switch rng.Intn(4) {
			case 0: // no usage
			case 1:
				tr.Charge(u, float64(rng.Intn(5)*100)) // ties
			default:
				tr.Charge(u, rng.Float64()*1e6)
			}
		}
		var live []int
		for u := 0; u < users; u++ {
			if rng.Intn(3) > 0 {
				live = append(live, u)
			}
		}
		rng.Shuffle(len(live), func(i, k int) { live[i], live[k] = live[k], live[i] })
		classifiers := []HeavyClassifier{
			AboveMean{}, AboveMean{Factor: 0.5 + 2*rng.Float64()},
			AboveQuantile{}, AboveQuantile{Q: rng.Float64()},
			AboveAbsolute{ProcSeconds: rng.Float64() * 1e6}, AboveAbsolute{},
			Never{},
		}
		for _, c := range classifiers {
			for u := 0; u < users+1; u++ {
				if heavy(c, tr, u, live) != refIsHeavy(c, tr, u, live) {
					t.Logf("seed %d: %s %+v user %d live %v", seed, c.Name(), c, u, live)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
