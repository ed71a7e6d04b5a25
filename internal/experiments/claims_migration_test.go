package experiments

import (
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/hypothesis"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
	"fairsched/internal/workload"
)

// The legacy claim checker (the closure table that lived in paper.go until
// the hypothesis migration), re-stated verbatim as the reference semantics.
// The migration contract: for every claim and every seed, the hypothesis
// spec's verdict equals the legacy closure's — so deleting the closures
// changed no verdict, ever.
func legacyChecks() map[string]func(r *Results) bool {
	base := "cplant24.nomax.all"
	lower := func(metric func(r *Results, key string) float64, key string) func(*Results) bool {
		return func(r *Results) bool { return metric(r, key) < metric(r, base) }
	}
	unfair := func(r *Results, key string) float64 { return r.ByKey[key].PercentUnfair }
	unfairLoad := func(r *Results, key string) float64 { return r.ByKey[key].PercentUnfairLoad }
	miss := func(r *Results, key string) float64 { return r.ByKey[key].AvgMissTime }
	tat := func(r *Results, key string) float64 { return r.ByKey[key].AvgTurnaround }
	loc := func(r *Results, key string) float64 { return r.ByKey[key].LossOfCapacity }

	return map[string]func(r *Results) bool{
		"fig8-fair-reduces-unfair":      lower(unfair, "cplant24.nomax.fair"),
		"fig8-72h-entry-reduces-unfair": lower(unfair, "cplant72.nomax.all"),
		"fig8-all-three-lowest": func(r *Results) bool {
			v := unfair(r, "cplant72.72max.fair")
			for _, k := range r.MinorKeys {
				if k != "cplant72.72max.fair" && unfair(r, k) <= v {
					return false
				}
			}
			return true
		},
		"fig8-72max-reduces-unfair-load": lower(unfairLoad, "cplant24.72max.all"),
		"fig9-72max-reduces-miss":        lower(miss, "cplant24.72max.all"),
		"fig10-wide-misses-dominate": func(r *Results) bool {
			m := r.ByKey[base].AvgMissByWidth
			return m[8] > m[4] && m[9] > m[4] && m[10] > m[4]
		},
		"fig11-72max-improves-tat": lower(tat, "cplant24.72max.all"),
		"fig12-72max-helps-wide-tat": func(r *Results) bool {
			b := r.ByKey[base].AvgTATByWidth
			m := r.ByKey["cplant24.72max.all"].AvgTATByWidth
			improved := 0
			for _, w := range []int{8, 9, 10} {
				if m[w] < b[w] {
					improved++
				}
			}
			return improved >= 2
		},
		"fig13-72max-improves-loc": lower(loc, "cplant24.72max.all"),
		"fig14-consdyn-fewest-unfair": func(r *Results) bool {
			v := unfair(r, "consdyn.nomax")
			for _, k := range r.AllKeys {
				if k != "consdyn.nomax" && unfair(r, k) < v {
					return false
				}
			}
			return true
		},
		"fig15-cons-nomax-high-miss": func(r *Results) bool {
			return miss(r, "cons.nomax") > miss(r, base) && miss(r, "consdyn.nomax") > miss(r, base)
		},
		"fig15-consdyn-outlier": func(r *Results) bool {
			v := miss(r, "consdyn.nomax")
			return v > 1.5*miss(r, base)
		},
		"fig15-cons72max-improves-miss": lower(miss, "cons.72max"),
		"fig16-cons-helps-wide": func(r *Results) bool {
			b := r.ByKey[base].AvgMissByWidth
			c := r.ByKey["cons.nomax"].AvgMissByWidth
			improved := 0
			for _, w := range []int{8, 9, 10} {
				if c[w] < b[w] {
					improved++
				}
			}
			return improved >= 2
		},
		"fig17-cons72max-competitive-tat": func(r *Results) bool {
			return tat(r, "cons.72max") < tat(r, "cons.nomax")
		},
		"fig19-72max-lowers-loc": func(r *Results) bool {
			return loc(r, "cons.72max") < loc(r, "cons.nomax") &&
				loc(r, "consdyn.72max") < loc(r, "consdyn.nomax")
		},
	}
}

// TestPaperHypothesesMatchLegacyClaims judges the paper claims through
// hypothesis.RunCampaign — the one claim evaluator — on a reduced-scale
// synthetic trace (scale 0.15, 150 nodes) under each of the reproduction's
// ten seeds (42–51), and demands that every spec returns exactly the
// verdict the legacy closure gives on the same seed's nine-policy sweep:
// the differential pin that allowed deleting the closure table. The
// reduced scale exercises both verdict polarities (some claims flip per
// seed at this size), which is what makes the comparison meaningful; the
// test fails if either polarity goes missing.
func TestPaperHypothesesMatchLegacyClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("two reduced-scale ten-seed campaigns")
	}
	legacy := legacyChecks()
	specs := parseClaims("paper", paperClaims)
	if len(specs) != len(legacy) {
		t.Fatalf("spec count %d != legacy count %d", len(specs), len(legacy))
	}
	var seeds []int64
	for seed := int64(42); seed <= 51; seed++ {
		seeds = append(seeds, seed)
	}
	src := scenario.Synthetic(workload.Config{Scale: 0.15, SystemSize: 150})
	study := core.StudyConfig{SystemSize: 150}
	eval, err := hypothesis.RunCampaign(specs, hypothesis.CampaignOptions{
		Source: src, Study: study, Seeds: seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweep.Campaign{Sources: []scenario.Source{src}, Seeds: seeds, Study: study}.Run()
	if err != nil {
		t.Fatal(err)
	}
	var held, failed int
	for _, o := range eval.Outcomes {
		check, ok := legacy[o.Spec.ID]
		if !ok {
			t.Fatalf("claim %s has no legacy counterpart", o.Spec.ID)
		}
		if len(o.Results) != len(seeds) {
			t.Fatalf("claim %s judged on %d seeds, want %d", o.Spec.ID, len(o.Results), len(seeds))
		}
		for i, got := range o.Results {
			if got.Err != nil {
				t.Fatalf("seed %d claim %s: %v", got.Seed, o.Spec.ID, got.Err)
			}
			if got.Seed != cells[i].Seed {
				t.Fatalf("claim %s result %d is seed %d, cell is seed %d", o.Spec.ID, i, got.Seed, cells[i].Seed)
			}
			if want := check(assemble(nil, cells[i])); got.Pass != want {
				t.Errorf("seed %d claim %s: hypothesis %v, legacy %v\n  spec: %s",
					got.Seed, o.Spec.ID, got.Pass, want, o.Spec.Canonical())
			}
			if got.Pass {
				held++
			} else {
				failed++
			}
		}
	}
	if held == 0 || failed == 0 {
		t.Fatalf("verdicts %d held / %d failed: the comparison needs both polarities", held, failed)
	}
	t.Logf("%d verdicts held, %d failed", held, failed)
}
