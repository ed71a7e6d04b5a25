package fairsched_test

import (
	"bytes"
	"strings"
	"testing"

	"fairsched"
	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/fairness"
	"fairsched/internal/fairshare"
	"fairsched/internal/scenario"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/slo"
	"fairsched/internal/sweep"
	"fairsched/internal/swf"
)

// The scenario-engine library route: stream a trace, build a campaign over
// built-in scenarios, render the report.
func TestPublicAPICampaignFlow(t *testing.T) {
	jobs, err := fairsched.GenerateWorkload(fairsched.WorkloadConfig{Seed: 5, Scale: 0.02, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip through the streaming scanner.
	var buf bytes.Buffer
	if err := writeSWF(&buf, jobs, 100); err != nil {
		t.Fatal(err)
	}
	sc := swf.NewScanner(bytes.NewReader(buf.Bytes()))
	streamed := 0
	for sc.Scan() {
		if _, ok := swf.Convert(sc.Record(), swf.ConvertOptions{}); ok {
			streamed++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if streamed != len(jobs) {
		t.Fatalf("streamed %d of %d jobs", streamed, len(jobs))
	}

	// Scenario specs resolve by name and by grammar.
	if len(scenario.Names()) < 4 {
		t.Fatalf("want at least 4 builtin scenarios, got %v", scenario.Names())
	}
	loadScaled, err := scenario.Parse("load=1.4")
	if err != nil {
		t.Fatal(err)
	}

	// A two-scenario campaign over the in-memory workload.
	cells, err := sweep.Campaign{
		Sources:   []scenario.Source{scenario.Jobs("mem", jobs, 100)},
		Scenarios: []scenario.Scenario{scenario.Builtins()[0], loadScaled},
		Seeds:     []int64{1},
		Specs: []core.Spec{
			mustPolicy(t, "fcfs"),
			mustPolicy(t, "cplant24.nomax.all"),
		},
		Study:    core.StudyConfig{SystemSize: 100},
		Parallel: 2,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}

	var report strings.Builder
	experiments.RenderCampaign(&report, cells)
	for _, want := range []string{"mem × baseline", "mem × load=1.4", "fcfs", "cplant24.nomax.all"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("campaign report missing %q:\n%s", want, report.String())
		}
	}

	if got := fairshare.EpochFor(1038700800, 0); got != -(1038700800 % 86400) {
		t.Errorf("FairshareEpochFor = %d", got)
	}
}

// The per-user SLO library route: parse a tagging spec, sweep it
// through a campaign, read the attainment table, and cross-check the
// online observer against the post-run reference.
func TestPublicAPISLOFlow(t *testing.T) {
	jobs, err := fairsched.GenerateWorkload(fairsched.WorkloadConfig{Seed: 5, Scale: 0.02, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	tagger, err := scenario.ParseTransform("slo=p50:30m,p90:4h,default:24h")
	if err != nil {
		t.Fatal(err)
	}
	tagged := scenario.Builtins()[0].With(tagger)
	cells, err := sweep.Campaign{
		Sources:   []scenario.Source{scenario.Jobs("mem", jobs, 100)},
		Scenarios: []scenario.Scenario{tagged},
		Specs:     []core.Spec{mustPolicy(t, "fcfs")},
		Study:     core.StudyConfig{SystemSize: 100},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].SLOs == nil || cells[0].SLOs[0] == nil {
		t.Fatal("campaign cell carries no SLO summary")
	}
	if got := cells[0].SLOs[0].Total.Jobs; got == 0 {
		t.Fatal("SLO summary measured no jobs")
	}
	var report strings.Builder
	experiments.RenderCampaign(&report, cells)
	for _, want := range []string{"SLO attainment", "p50", "default", "(all)"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("campaign report missing %q:\n%s", want, report.String())
		}
	}

	// Library route: assignment built by hand, observer attached to a bare
	// simulator, output equal to the post-run reference.
	b := slo.NewBuilder()
	b.AddClass("gold", slo.Target{Wait: 1800, Slowdown: 8})
	for _, j := range jobs {
		b.Tag(j.User, "gold")
	}
	asg := b.Build()
	engine := fairness.NewHybridFST()
	obs := fairness.NewSLOObserver(asg, engine)
	pol, err := sched.New(mustPolicy(t, "easy"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(sim.Config{SystemSize: 100}, pol, engine, obs).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	ref := slo.FromRecords(asg, res.Records, engine.Table()).Summary()
	if got, want := obs.Summary().Total, ref.Total; got != want {
		t.Fatalf("online observer %+v != reference %+v", got, want)
	}
}
