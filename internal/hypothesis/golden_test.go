package hypothesis_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fairsched/internal/hypothesis"
	"fairsched/internal/job"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
)

// goldenJobs is the hand-checkable 4-job workload on a 4-node machine (the
// same shape the SLO campaign golden pins). Under fcfs: job 1 runs 0–100
// (wait 0), job 2 100–300 (wait 100), job 3 300–350 (wait 290), job 4
// 350–650 (wait 340). So avg_wait = 730/4 = 182.5 s, avg_tat =
// (100+300+340+640)/4 = 345 s, util = 2000 proc-sec / (650 s × 4 nodes) =
// 0.7692…, and under slo=p50:1m,default:2m (usage ranking tags users 3 and
// 1 into p50) jobs 3 and 4 breach their wait targets by 230 s and 220 s.
func goldenJobs() []*job.Job {
	return []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 4},
		{ID: 2, User: 2, Submit: 0, Runtime: 200, Estimate: 200, Nodes: 4},
		{ID: 3, User: 3, Submit: 10, Runtime: 50, Estimate: 50, Nodes: 4},
		{ID: 4, User: 4, Submit: 10, Runtime: 300, Estimate: 300, Nodes: 2},
	}
}

// goldenSpecs covers every verdict and every report feature the grammar can
// produce: dominance across metrics, exact and approximate constants, a
// quorum with a failing term, an SLO metric behind an @scenario, a
// multi-seed confirmation (the in-memory source ignores the seed, so every
// seed agrees) and one deliberate refutation.
func goldenSpecs(t *testing.T) []hypothesis.Spec {
	t.Helper()
	texts := []string{
		"claim wait-below-tat: fcfs#avg_wait < fcfs#avg_tat",
		"claim exact-avg-wait: fcfs = 182.5 on avg_wait",
		"claim util-approx: fcfs ~1% 0.77 on util",
		"claim wait-quorum: fcfs < 100 and fcfs < 200 on avg_wait require 1",
		"claim slo-breaches: fcfs@slo=p50:1m,default:2m = 2 on slo.all.breached",
		"claim multi-seed: fcfs < 200 on avg_wait seeds 1..3",
		"claim refuted: fcfs > 200 on avg_wait tier 3",
	}
	specs := make([]hypothesis.Spec, len(texts))
	for i, text := range texts {
		s, err := hypothesis.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = s
	}
	specs[0].Statement = "every job waits less than it turns around"
	return specs
}

func goldenOptions(parallel int) hypothesis.CampaignOptions {
	return hypothesis.CampaignOptions{
		Source:   scenario.Jobs("golden", goldenJobs(), 4),
		Parallel: parallel,
	}
}

// TestFindingsGolden pins the FINDINGS report byte-for-byte on the
// hand-checked workload: every evidence value in the expected text is
// derivable with pencil and paper from goldenJobs' schedule.
func TestFindingsGolden(t *testing.T) {
	eval, err := hypothesis.RunCampaign(goldenSpecs(t), goldenOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	hypothesis.RenderFindings(&buf, eval)
	const want = `FINDINGS — 7 hypotheses on golden
matrix: 5 cells, 5 policy runs
verdicts: 6 confirmed, 0 supported, 1 refuted; 6/7 hold on the reference seed

## wait-below-tat — CONFIRMED (tier 1, 1/1 seeds)
   claim wait-below-tat: fcfs#avg_wait < fcfs#avg_tat
   > every job waits less than it turns around
     seed  result  evidence
       42  pass    182.5 < 345

## exact-avg-wait — CONFIRMED (tier 1, 1/1 seeds)
   claim exact-avg-wait: fcfs = 182.5 on avg_wait
     seed  result  evidence
       42  pass    182.5 = 182.5

## util-approx — CONFIRMED (tier 1, 1/1 seeds)
   claim util-approx: fcfs ~1% 0.77 on util
     seed  result  evidence
       42  pass    0.7692307692307693 ~1% 0.77

## wait-quorum — CONFIRMED (tier 1, 1/1 seeds)
   claim wait-quorum: fcfs < 100 and fcfs < 200 on avg_wait require 1
     seed  result  evidence
       42  pass (1/2 held, need 1)  182.5 < 100 [FAIL]; 182.5 < 200

## slo-breaches — CONFIRMED (tier 1, 1/1 seeds)
   claim slo-breaches: fcfs@slo=p50:1m,default:2m = 2 on slo.all.breached
     seed  result  evidence
       42  pass    2 = 2

## multi-seed — CONFIRMED (tier 1, 3/3 seeds)
   claim multi-seed: fcfs < 200 on avg_wait seeds 1..3
     seed  result  evidence
        1  pass    182.5 < 200
        2  pass    182.5 < 200
        3  pass    182.5 < 200

## refuted — REFUTED (tier 3, 0/1 seeds)
   claim refuted: fcfs > 200 on avg_wait tier 3
     seed  result  evidence
       42  FAIL    182.5 > 200 [FAIL]
`
	if got := buf.String(); got != want {
		t.Fatalf("FINDINGS diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if failed := eval.GateFailed(2); len(failed) != 0 {
		t.Fatalf("tier-3 refutation must not gate, got %v", failed)
	}
	if failed := eval.GateFailed(3); len(failed) != 1 || failed[0] != "refuted" {
		t.Fatalf("gate at tier 3 = %v, want [refuted]", failed)
	}
}

// TestFindingsDeterministicAcrossParallelism: the FINDINGS report (and the
// Markdown table) must be byte-identical at every worker count — the
// campaign contract carried through the hypothesis layer.
func TestFindingsDeterministicAcrossParallelism(t *testing.T) {
	render := func(parallel int) (string, string) {
		eval, err := hypothesis.RunCampaign(goldenSpecs(t), goldenOptions(parallel))
		if err != nil {
			t.Fatal(err)
		}
		var findings, md bytes.Buffer
		hypothesis.RenderFindings(&findings, eval)
		hypothesis.RenderMarkdown(&md, eval)
		return findings.String(), md.String()
	}
	serialF, serialMD := render(1)
	if !strings.Contains(serialF, "FINDINGS") {
		t.Fatal("no FINDINGS header")
	}
	if parF, parMD := render(8); parF != serialF || parMD != serialMD {
		t.Fatal("report differs between -parallel 1 and 8")
	}
}

// A cell that fails to load must not discard the batch: only the claims
// that read the failed seed report an ERROR row there, every other claim
// keeps its verdicts, and the casualty comes back as the error.
func TestRunCampaignKeepsVerdictsOnFailedCell(t *testing.T) {
	golden := scenario.Jobs("flaky", goldenJobs(), 4)
	opt := goldenOptions(4)
	opt.Source.Load = func(seed int64) (*scenario.Workload, error) {
		if seed == 2 {
			return nil, errors.New("seed 2 trace unreadable")
		}
		return golden.Load(seed)
	}
	specs := make([]hypothesis.Spec, 0, 2)
	for _, text := range []string{
		"claim reads-failed-seed: fcfs < 200 on avg_wait seeds 1..3",
		"claim spared: fcfs = 182.5 on avg_wait seeds 1+3",
	} {
		s, err := hypothesis.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	eval, err := hypothesis.RunCampaign(specs, opt)
	var errs *sweep.Errors
	if !errors.As(err, &errs) || len(errs.Runs) != 1 {
		t.Fatalf("want one captured cell failure, got %v", err)
	}
	if eval == nil {
		t.Fatal("evaluation discarded because one cell failed")
	}
	hit, spared := eval.Outcomes[0], eval.Outcomes[1]
	for _, r := range hit.Results {
		if failed := r.Err != nil; failed != (r.Seed == 2) {
			t.Errorf("reads-failed-seed seed %d: err = %v", r.Seed, r.Err)
		}
	}
	if spared.Status() != hypothesis.StatusConfirmed {
		t.Errorf("spared claim = %s, want CONFIRMED", spared.Status())
	}
	var buf bytes.Buffer
	hypothesis.RenderFindings(&buf, eval)
	if n := strings.Count(buf.String(), "ERROR"); n != 1 {
		t.Fatalf("want exactly one ERROR row, got %d:\n%s", n, buf.String())
	}
}

// TestRunCampaignRunsOnlyNamedTriples: claims on different scenarios and
// policies run only the (trace, scenario, policy) triples they name, each
// on its own claims' seeds — not the product of every claim's scenarios,
// policies and seeds (2 scenarios × 3 seeds × 2 policies = 12 runs).
func TestRunCampaignRunsOnlyNamedTriples(t *testing.T) {
	var specs []hypothesis.Spec
	for _, text := range []string{
		"claim fcfs-wait: fcfs = 182.5 on avg_wait seeds 1..2",
		"claim easy-breaches: easy@slo=p50:1m,default:2m >= 0 on slo.all.breached seeds 3",
	} {
		s, err := hypothesis.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	eval, err := hypothesis.RunCampaign(specs, goldenOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if eval.Cells != 3 || eval.Runs != 3 {
		t.Fatalf("ran %d cells, %d policy runs; want 3 and 3", eval.Cells, eval.Runs)
	}
	if got := eval.Confirmed(); got != 2 {
		t.Fatalf("confirmed %d of 2 claims", got)
	}
}
