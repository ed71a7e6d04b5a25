package experiments_test

import (
	"bytes"
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/job"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
	"fairsched/internal/workload"
)

func mustSpecsSLO(t *testing.T, keys ...string) []core.Spec {
	t.Helper()
	out := make([]core.Spec, 0, len(keys))
	for _, k := range keys {
		s, err := core.SpecByKey(k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func mustScenarioSLO(t *testing.T, spec string) scenario.Scenario {
	t.Helper()
	s, err := scenario.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenSLOJobs is a tiny hand-checkable workload on a 4-node machine:
// usage ranking ascending is user 3 (200), user 1 (400), user 4 (600),
// user 2 (800), so slo=p50:1m tags users 3 and 1 and default:2m the rest.
// Under fcfs: job 1 waits 0 (attained), job 2 waits 100 (within 2m), job 3
// waits 290 (p50 breach of 230s), job 4 waits 340 (default breach of
// 220s).
func goldenSLOJobs() []*job.Job {
	return []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 4},
		{ID: 2, User: 2, Submit: 0, Runtime: 200, Estimate: 200, Nodes: 4},
		{ID: 3, User: 3, Submit: 10, Runtime: 50, Estimate: 50, Nodes: 4},
		{ID: 4, User: 4, Submit: 10, Runtime: 300, Estimate: 300, Nodes: 2},
	}
}

// TestRenderCampaignSLOGolden pins the SLO attainment table byte-for-byte
// on a workload small enough to verify by hand.
func TestRenderCampaignSLOGolden(t *testing.T) {
	c := sweep.Campaign{
		Sources:   []scenario.Source{scenario.Jobs("golden", goldenSLOJobs(), 4)},
		Scenarios: []scenario.Scenario{mustScenarioSLO(t, "slo=p50:1m,default:2m,default:1.5x")},
		Specs:     mustSpecsSLO(t, "fcfs"),
		Study:     core.StudyConfig{SystemSize: 4},
		Parallel:  1,
	}
	cells, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	experiments.RenderCampaign(&buf, cells)
	// Hand check: fcfs on 4 nodes runs 1 (wait 0), 2 (wait 100s), 3 (wait
	// 290s), 4 (wait 340s). p50 = users {3, 1}: job 3 breaches its 60s
	// wait target by 230s (histogram bin edge 239s = 0.07h); default =
	// users {4, 2} with wait 2m + slowdown 1.5x: job 4 breaches the wait
	// target by 220s (bin edge 223s = 0.06h) AND its slowdown
	// (340+300)/300 = 2.13 > 1.5 (slowbr 1); job 2 is within both (wait
	// 100s, slowdown (100+200)/200 = 1.5 exactly). Both wait breaches are
	// infeasible: the fair reference schedule starts those jobs no
	// earlier. Utilization = 2000 proc-sec / (650s makespan × 4 nodes). The
	// offender rows rank user 3 (230s excess) above user 4 (220s): equal
	// breach counts fall through to total wait-breach excess.
	const want = `CAMPAIGN — 1 cells

golden × slo=p50:1m,default:2m,default:1.5x (seed 0) — 4 jobs on 4 nodes
  policy                   avgwait(h)    avgTAT(h)     util   %unfair   avgmiss(h)
  fcfs                           0.05         0.10    0.769       0.0         0.00
  SLO attainment — per user class (unfair: fair start met the target; infeas: it did not;
  p95brch/worst are wait-breach excess — slowbr counts slowdown-target misses separately)
  policy                 class    users    jobs  attain% breached  unfair  infeas  slowbr  p95brch(h)  worst(h)
  fcfs                   p50          2       2     50.0        1       0       1       0        0.07      0.06
  fcfs                   default      2       2     50.0        1       0       1       1        0.06      0.06
  fcfs                   (all)        4       4     50.0        2       0       2       1        0.07      0.06
  worst offenders — top 3 most-breached users per policy (totbrch: summed excess wait)
  policy                 class     user    jobs breached  totbrch(h)  worst(h)  worstjob
  fcfs                   p50          3       1        1        0.06      0.06         3
  fcfs                   default      4       1        1        0.06      0.06         4

`
	if got := buf.String(); got != want {
		t.Fatalf("SLO campaign report diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func sloCampaign(parallel int) sweep.Campaign {
	return sweep.Campaign{
		Sources: []scenario.Source{
			scenario.Synthetic(workload.Config{Scale: 0.02, SystemSize: 100}),
		},
		Scenarios: []scenario.Scenario{
			scenario.Baseline(),
			mustBuiltin("slo-tiered"),
			mustBuiltinParse("load=1.3+slo=p50:30m,p90:4h,default:24h"),
			mustBuiltinParse("slo=p50:1h,p50:8x,user3:15m"),
		},
		Seeds:    []int64{42, 43},
		Specs:    nil, // default nine: exercises the full registry
		Study:    core.StudyConfig{SystemSize: 100},
		Parallel: parallel,
	}
}

func mustBuiltin(name string) scenario.Scenario {
	s, ok := scenario.Get(name)
	if !ok {
		panic("missing builtin " + name)
	}
	return s
}

func mustBuiltinParse(spec string) scenario.Scenario {
	s, err := scenario.Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// TestCampaignSLODeterministicAcrossParallelism: the SLO tables, like the
// rest of the campaign report, must be byte-identical at every worker
// count.
func TestCampaignSLODeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full nine-policy SLO campaign")
	}
	render := func(parallel int) string {
		cells, err := sloCampaign(parallel).Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		experiments.RenderCampaign(&buf, cells)
		return buf.String()
	}
	serial := render(1)
	if !bytes.Contains([]byte(serial), []byte("SLO attainment")) {
		t.Fatal("campaign report carries no SLO table")
	}
	if parallel := render(8); parallel != serial {
		t.Fatal("SLO report differs between -parallel 1 and 8")
	}
}

// The baseline scenario (no SLO transform) must keep rendering exactly as
// before — no empty SLO table, no nil-slice surprises.
func TestRenderCampaignWithoutSLOUnchanged(t *testing.T) {
	c := sweep.Campaign{
		Sources:   []scenario.Source{scenario.Jobs("plain", goldenSLOJobs(), 4)},
		Scenarios: []scenario.Scenario{scenario.Baseline()},
		Specs:     mustSpecsSLO(t, "fcfs"),
		Study:     core.StudyConfig{SystemSize: 4},
		Parallel:  1,
	}
	cells, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].SLOs != nil {
		t.Fatal("baseline cell grew an SLO summary")
	}
	var buf bytes.Buffer
	experiments.RenderCampaign(&buf, cells)
	if bytes.Contains(buf.Bytes(), []byte("SLO")) {
		t.Fatalf("baseline report mentions SLO:\n%s", buf.String())
	}
}
