package core

import (
	"strings"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/workload"
)

func tinyWorkload() []*job.Job {
	return []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 3600, Estimate: 7200, Nodes: 64},
		{ID: 2, User: 2, Submit: 10, Runtime: 1800, Estimate: 1800, Nodes: 32},
		{ID: 3, User: 1, Submit: 20, Runtime: 600, Estimate: 3600, Nodes: 100},
		{ID: 4, User: 3, Submit: 5000, Runtime: 90000, Estimate: 100000, Nodes: 90},
		{ID: 5, User: 2, Submit: 6000, Runtime: 300000, Estimate: 400000, Nodes: 128},
	}
}

func TestExecuteAllSpecsOnTinyWorkload(t *testing.T) {
	cfg := StudyConfig{SystemSize: 128, Validate: true, Equality: true}
	for _, spec := range AllSpecs() {
		run, err := Execute(cfg, spec, tinyWorkload())
		if err != nil {
			t.Fatalf("%s: %v", spec.Key, err)
		}
		if run.Summary.Jobs < len(tinyWorkload()) {
			t.Errorf("%s: %d records, want >= %d", spec.Key, run.Summary.Jobs, len(tinyWorkload()))
		}
		for _, rec := range run.Result.Records {
			if !rec.Finished {
				t.Errorf("%s: job %d unfinished", spec.Key, rec.Job.ID)
			}
			if rec.Start < rec.Submit {
				t.Errorf("%s: job %d started before submit", spec.Key, rec.Job.ID)
			}
		}
		if run.Summary.LossOfCapacity < 0 || run.Summary.LossOfCapacity > 1 {
			t.Errorf("%s: LOC %f out of range", spec.Key, run.Summary.LossOfCapacity)
		}
	}
}

// TestExecuteRejectsTimesPastTheHorizon: estimates beyond job.MaxTime once
// wrapped the conservative engines' reservation sums into a panic. Every
// policy must refuse such a workload with an error instead.
func TestExecuteRejectsTimesPastTheHorizon(t *testing.T) {
	huge := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 9e18, Nodes: 4},
		{ID: 2, User: 2, Submit: 10, Runtime: 100, Estimate: 200, Nodes: 8},
		{ID: 3, User: 3, Submit: 20, Runtime: 100, Estimate: 1 << 62, Nodes: 8},
		{ID: 4, User: 4, Submit: 30, Runtime: 100, Estimate: 300, Nodes: 2},
	}
	for _, spec := range AllSpecs() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic: %v", spec.Key, r)
				}
			}()
			_, err := Execute(StudyConfig{SystemSize: 10, Validate: true}, spec, huge)
			if err == nil || !strings.Contains(err.Error(), "horizon") {
				t.Errorf("%s: err = %v, want the horizon rejection", spec.Key, err)
			}
		}()
	}
}

func TestExecuteGeneratedWorkloadSmoke(t *testing.T) {
	jobs, err := workload.Generate(workload.Config{Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("generated %d jobs", len(jobs))
	cfg := StudyConfig{Validate: true}
	for _, key := range []string{"cplant24.nomax.all", "cons.72max", "consdyn.nomax"} {
		spec, err := SpecByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		run, err := Execute(cfg, spec, jobs)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		s := run.Summary
		t.Logf("%s: jobs=%d unfair=%.2f%% miss=%.0fs tat=%.0fs loc=%.4f util=%.3f",
			key, s.Jobs, s.PercentUnfair, s.AvgMissTime, s.AvgTurnaround, s.LossOfCapacity, s.Utilization)
		if s.Utilization <= 0 || s.Utilization > 1 {
			t.Errorf("%s: utilization %f out of range", key, s.Utilization)
		}
	}
}
