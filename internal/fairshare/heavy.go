package fairshare

import (
	"math"
	"sort"
)

// HeavyClassifier decides which users count as "heavy"/"unfair" for the
// purpose of barring them from the starvation queue (paper §5.2). The paper
// does not pin down the rule, so three classifiers are provided; AboveMean
// is the default used by the *.fair policies.
//
// Every rule is "decayed usage above a threshold over the live users", so a
// classifier reports the threshold and the caller compares: user u is heavy
// iff t.Usage(u) > Threshold(t, liveUsers). A scheduling pass computes the
// threshold once and tests each candidate with one comparison.
type HeavyClassifier interface {
	// Threshold returns the usage above which a user is heavy given the
	// tracker state and the users who currently have live (queued or
	// running) work. A rule that marks no one heavy returns +Inf.
	Threshold(t *Tracker, liveUsers []int) float64
	Name() string
}

// AboveMean marks a user heavy when their decayed usage exceeds Factor
// times the mean decayed usage over live users. Factor <= 0 means 1.0.
type AboveMean struct{ Factor float64 }

// Name implements HeavyClassifier.
func (a AboveMean) Name() string { return "above-mean" }

// Threshold implements HeavyClassifier: Factor times the live mean, or +Inf
// when there are no live users or the mean is not positive.
func (a AboveMean) Threshold(t *Tracker, liveUsers []int) float64 {
	f := a.Factor
	if f <= 0 {
		f = 1.0
	}
	if len(liveUsers) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, u := range liveUsers {
		sum += t.Usage(u)
	}
	mean := sum / float64(len(liveUsers))
	if mean <= 0 {
		return math.Inf(1)
	}
	return f * mean
}

// AboveQuantile marks a user heavy when their decayed usage is above the
// q-th quantile (0..1) of live users' usages. Defaults to the 0.75
// quantile when Q is outside (0,1).
type AboveQuantile struct{ Q float64 }

// Name implements HeavyClassifier.
func (a AboveQuantile) Name() string { return "above-quantile" }

// Threshold implements HeavyClassifier: the live users' q-th usage
// quantile, or +Inf when there are no live users or the quantile is not
// positive.
func (a AboveQuantile) Threshold(t *Tracker, liveUsers []int) float64 {
	q := a.Q
	if q <= 0 || q >= 1 {
		q = 0.75
	}
	if len(liveUsers) == 0 {
		return math.Inf(1)
	}
	us := make([]float64, 0, len(liveUsers))
	for _, u := range liveUsers {
		us = append(us, t.Usage(u))
	}
	sort.Float64s(us)
	threshold := us[int(q*float64(len(us)-1))]
	if threshold <= 0 {
		return math.Inf(1)
	}
	return threshold
}

// AboveAbsolute marks a user heavy when their decayed usage exceeds a fixed
// processor-second threshold.
type AboveAbsolute struct{ ProcSeconds float64 }

// Name implements HeavyClassifier.
func (a AboveAbsolute) Name() string { return "above-absolute" }

// Threshold implements HeavyClassifier: ProcSeconds, whoever is live.
func (a AboveAbsolute) Threshold(*Tracker, []int) float64 { return a.ProcSeconds }

// Never marks no one heavy (the *.all policies).
type Never struct{}

// Name implements HeavyClassifier.
func (Never) Name() string { return "never" }

// Threshold implements HeavyClassifier.
func (Never) Threshold(*Tracker, []int) float64 { return math.Inf(1) }
