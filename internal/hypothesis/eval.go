package hypothesis

import (
	"fmt"
	"math"
)

// Resolver resolves one configuration's metric for the seed under test.
// The campaign driver builds one per seed over the cell index; tests can
// supply a map-backed one.
type Resolver func(cfg Config, metric string) (float64, error)

// TermResult is one term's evaluation on one seed. Left and Right are the
// compared values, after the side factors are applied.
type TermResult struct {
	Left  float64
	Right float64
	Pass  bool
}

// SeedResult is one claim's evaluation on one seed.
type SeedResult struct {
	Seed  int64
	Terms []TermResult
	Held  int  // terms that passed
	Pass  bool // Held >= the spec's quorum
	Err   error
}

// Status is a claim's verdict over its seeds.
type Status string

const (
	// StatusConfirmed: the claim held on every seed.
	StatusConfirmed Status = "CONFIRMED"
	// StatusSupported: the claim held on the reference seed (the first in
	// the seeds clause) but not unanimously.
	StatusSupported Status = "SUPPORTED"
	// StatusRefuted: the claim failed on the reference seed.
	StatusRefuted Status = "REFUTED"
)

// Outcome is one claim's evaluation over all its seeds.
type Outcome struct {
	Spec    Spec
	Results []SeedResult // in EffectiveSeeds order
}

// Passed counts the seeds the claim held on.
func (o *Outcome) Passed() int {
	n := 0
	for _, r := range o.Results {
		if r.Pass {
			n++
		}
	}
	return n
}

// Reference returns the reference-seed result (the first seed).
func (o *Outcome) Reference() SeedResult {
	if len(o.Results) == 0 {
		return SeedResult{}
	}
	return o.Results[0]
}

// Unanimous reports whether the claim held on every seed.
func (o *Outcome) Unanimous() bool { return o.Passed() == len(o.Results) }

// Status grades the outcome: CONFIRMED when unanimous, SUPPORTED when the
// reference seed holds, REFUTED otherwise.
func (o *Outcome) Status() Status {
	switch {
	case o.Unanimous():
		return StatusConfirmed
	case o.Reference().Pass:
		return StatusSupported
	default:
		return StatusRefuted
	}
}

// evaluateSeed evaluates one claim on one seed through the resolver. A
// resolver error (missing cell, metric without SLO data) surfaces in
// SeedResult.Err and the seed counts as failed.
func evaluateSeed(s Spec, seed int64, resolve Resolver) SeedResult {
	res := SeedResult{Seed: seed, Terms: make([]TermResult, 0, len(s.Terms))}
	for _, t := range s.Terms {
		l, err := sideValue(s, t.Left, resolve)
		if err != nil {
			res.Err = err
			return res
		}
		r, err := sideValue(s, t.Right, resolve)
		if err != nil {
			res.Err = err
			return res
		}
		tr := TermResult{Left: l, Right: r, Pass: compare(t.Op, t.Tol, l, r)}
		if tr.Pass {
			res.Held++
		}
		res.Terms = append(res.Terms, tr)
	}
	res.Pass = res.Held >= s.EffectiveRequire()
	return res
}

// Evaluate runs the claim on every seed, building each seed's resolver
// through mkResolver.
func Evaluate(s Spec, mkResolver func(seed int64) Resolver) Outcome {
	out := Outcome{Spec: s}
	for _, seed := range s.EffectiveSeeds() {
		out.Results = append(out.Results, evaluateSeed(s, seed, mkResolver(seed)))
	}
	return out
}

// sideValue resolves one side to its compared value: the constant, or the
// configuration's metric scaled by the side factor. The factor multiplies
// exactly as the legacy closures did (factor*value, one float64 multiply).
func sideValue(s Spec, side Side, resolve Resolver) (float64, error) {
	if side.IsConst {
		return side.Const, nil
	}
	metric := side.Metric
	if metric == "" {
		metric = s.Metric
	}
	v, err := resolve(side.Config, metric)
	if err != nil {
		return 0, err
	}
	if side.Factor != 0 {
		v = side.Factor * v
	}
	return v, nil
}

// compare applies the operator with the exact float64 semantics the legacy
// claim closures used (direct comparison, no epsilon).
func compare(op Op, tol, l, r float64) bool {
	switch op {
	case OpLess:
		return l < r
	case OpLessEq:
		return l <= r
	case OpGreater:
		return l > r
	case OpGreaterEq:
		return l >= r
	case OpEq:
		return l == r
	case OpApprox:
		return math.Abs(l-r) <= tol/100*math.Max(math.Abs(l), math.Abs(r))
	}
	panic(fmt.Sprintf("hypothesis: unknown op %q", op))
}
