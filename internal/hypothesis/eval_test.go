package hypothesis

import (
	"fmt"
	"strings"
	"testing"
)

// tableResolver backs a Resolver with per-seed (policy, scenario, metric)
// values.
type tableResolver map[int64]map[string]float64

func (tr tableResolver) at(seed int64) Resolver {
	return func(cfg Config, metric string) (float64, error) {
		v, ok := tr[seed][cfg.String()+"#"+metric]
		if !ok {
			return 0, fmt.Errorf("no value for %s#%s at seed %d", cfg, metric, seed)
		}
		return v, nil
	}
}

func mustParse(t *testing.T, in string) Spec {
	t.Helper()
	s, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEvaluateDominance(t *testing.T) {
	s := mustParse(t, "claim dom: fcfs < easy on avg_wait seeds 1..3")
	tr := tableResolver{
		1: {"fcfs#avg_wait": 1, "easy#avg_wait": 2},
		2: {"fcfs#avg_wait": 3, "easy#avg_wait": 2},
		3: {"fcfs#avg_wait": 2, "easy#avg_wait": 2}, // tie: strict < fails
	}
	o := Evaluate(s, tr.at)
	if got := o.Status(); got != StatusSupported {
		t.Errorf("status = %v, want SUPPORTED (passes ref seed 1, fails 2 and 3)", got)
	}
	if o.Passed() != 1 || o.Results[1].Pass || o.Results[2].Pass {
		t.Errorf("per-seed = %+v", o.Results)
	}
	if r := o.Results[0]; r.Terms[0].Left != 1 || r.Terms[0].Right != 2 {
		t.Errorf("evidence values = %+v", r.Terms[0])
	}
}

func TestEvaluateStatuses(t *testing.T) {
	s := mustParse(t, "claim st: fcfs < easy on avg_wait seeds 1..2")
	conf := tableResolver{
		1: {"fcfs#avg_wait": 1, "easy#avg_wait": 2},
		2: {"fcfs#avg_wait": 1, "easy#avg_wait": 2},
	}
	if got := func() Status { o := Evaluate(s, conf.at); return o.Status() }(); got != StatusConfirmed {
		t.Errorf("unanimous status = %v", got)
	}
	refut := tableResolver{
		1: {"fcfs#avg_wait": 5, "easy#avg_wait": 2},
		2: {"fcfs#avg_wait": 1, "easy#avg_wait": 2},
	}
	if got := func() Status { o := Evaluate(s, refut.at); return o.Status() }(); got != StatusRefuted {
		t.Errorf("reference-fail status = %v", got)
	}
}

func TestEvaluateQuorumAndFactor(t *testing.T) {
	// 2-of-3 quorum with a 1.5x factor on the right side.
	s := mustParse(t, "claim q: fcfs#avg_wait > easy#avg_wait*1.5 "+
		"and fcfs#avg_tat > easy#avg_tat and fcfs#util > easy#util on avg_wait require 2 seeds 7")
	tr := tableResolver{7: {
		"fcfs#avg_wait": 16, "easy#avg_wait": 10, // 16 > 15: pass
		"fcfs#avg_tat": 5, "easy#avg_tat": 9, // fail
		"fcfs#util": 0.9, "easy#util": 0.8, // pass
	}}
	o := Evaluate(s, tr.at)
	r := o.Results[0]
	if !r.Pass || r.Held != 2 {
		t.Errorf("quorum result = %+v", r)
	}
	if r.Terms[0].Right != 15 {
		t.Errorf("factor not applied: right = %v, want 15", r.Terms[0].Right)
	}
}

func TestEvaluateApproxAndConst(t *testing.T) {
	s := mustParse(t, "claim eq: fcfs ~10% easy and fcfs = 4 on jobs seeds 1")
	tr := tableResolver{1: {"fcfs#jobs": 4, "easy#jobs": 4.2}}
	o := Evaluate(s, tr.at)
	if !o.Results[0].Pass {
		t.Errorf("result = %+v", o.Results[0])
	}
	// 4 vs 5 is a 20% gap: outside tolerance.
	tr[1]["easy#jobs"] = 5
	if Evaluate(s, tr.at).Results[0].Pass {
		t.Error("20%% gap passed a 10%% tolerance")
	}
}

func TestEvaluateResolverError(t *testing.T) {
	s := mustParse(t, "claim e: fcfs < easy on avg_wait seeds 1..2")
	tr := tableResolver{1: {"fcfs#avg_wait": 1, "easy#avg_wait": 2}} // seed 2 missing
	o := Evaluate(s, tr.at)
	if o.Results[1].Err == nil || o.Results[1].Pass {
		t.Errorf("missing-cell seed = %+v", o.Results[1])
	}
	if got := o.Status(); got != StatusSupported {
		t.Errorf("status = %v (errors count as failed seeds)", got)
	}
}

func TestRenderFindingsEvidence(t *testing.T) {
	s := mustParse(t, "claim ev: fcfs < easy on avg_wait seeds 1..2")
	tr := tableResolver{
		1: {"fcfs#avg_wait": 1.5, "easy#avg_wait": 2},
		2: {"fcfs#avg_wait": 3, "easy#avg_wait": 2},
	}
	e := &Evaluation{Source: "table", Outcomes: []Outcome{Evaluate(s, tr.at)}, Cells: 2, Runs: 4}
	var b strings.Builder
	RenderFindings(&b, e)
	out := b.String()
	for _, want := range []string{
		"FINDINGS — 1 hypotheses on table",
		"## ev — SUPPORTED (tier 1, 1/2 seeds)",
		"claim ev: fcfs < easy on avg_wait seeds 1..2",
		"1.5 < 2",
		"3 < 2 [FAIL]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FINDINGS missing %q:\n%s", want, out)
		}
	}
}
