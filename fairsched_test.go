package fairsched_test

import (
	"bytes"
	"strings"
	"testing"

	"fairsched"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	jobs, err := fairsched.GenerateWorkload(fairsched.WorkloadConfig{
		Seed: 42, Scale: 0.1, SystemSize: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("no jobs generated")
	}
	spec, err := fairsched.PolicyByName("cplant24.nomax.all")
	if err != nil {
		t.Fatal(err)
	}
	run, err := fairsched.Run(fairsched.StudyConfig{SystemSize: 100}, spec, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if run.Summary.Jobs != len(jobs) {
		t.Fatalf("summary jobs %d != %d", run.Summary.Jobs, len(jobs))
	}
}

func TestPublicAPIPolicyLists(t *testing.T) {
	if len(fairsched.AllPolicies()) != 9 {
		t.Fatal("AllPolicies should list the paper's nine configurations")
	}
	if len(fairsched.MinorPolicies()) != 5 {
		t.Fatal("MinorPolicies should list five configurations")
	}
	names := fairsched.PolicyNames()
	found := false
	for _, n := range names {
		if n == "consdyn.72max" {
			found = true
		}
	}
	if !found {
		t.Fatalf("consdyn.72max missing from %v", names)
	}
}

func TestPublicAPISWFRoundTrip(t *testing.T) {
	jobs, err := fairsched.GenerateWorkload(fairsched.WorkloadConfig{
		Seed: 1, Scale: 0.02, SystemSize: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fairsched.WriteSWF(&buf, jobs, 100); err != nil {
		t.Fatal(err)
	}
	back, size, err := fairsched.ReadSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if size != 100 || len(back) != len(jobs) {
		t.Fatalf("round trip: size=%d jobs=%d", size, len(back))
	}
}

// TestReadSWFSizeFallsBackToMaxProcs: a header without MaxNodes declares
// its machine through MaxProcs, the same rule every trace loader follows.
func TestReadSWFSizeFallsBackToMaxProcs(t *testing.T) {
	trace := "; Version: 2\n; MaxProcs: 64\n" +
		"1 0 0 100 4 -1 -1 4 200 -1 1 3 1 -1 -1 -1 -1 -1\n"
	jobs, size, err := fairsched.ReadSWF(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if size != 64 || len(jobs) != 1 {
		t.Fatalf("MaxProcs-only header: size=%d jobs=%d, want 64 and 1", size, len(jobs))
	}
}

func TestPublicAPICustomSimulator(t *testing.T) {
	jobs := []*fairsched.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 4},
		{ID: 2, User: 2, Submit: 10, Runtime: 50, Estimate: 50, Nodes: 4},
	}
	spec, err := fairsched.PolicyByName("easy")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := fairsched.NewPolicy(spec)
	if err != nil {
		t.Fatal(err)
	}
	fst := fairsched.NewHybridFST()
	s := fairsched.NewSimulator(fairsched.SimConfig{SystemSize: 8, Validate: true}, pol, fst)
	res, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 {
		t.Fatal("records missing")
	}
	if _, ok := fst.FST(1); !ok {
		t.Fatal("fairness engine recorded nothing")
	}
}

func TestPublicAPIExperimentsReport(t *testing.T) {
	jobs, err := fairsched.GenerateWorkload(fairsched.WorkloadConfig{
		Seed: 42, Scale: 0.1, SystemSize: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fairsched.RunExperiments(fairsched.StudyConfig{SystemSize: 100}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fairsched.WriteReport(&buf, res)
	if !strings.Contains(buf.String(), "FIG14") {
		t.Fatal("report missing figures")
	}
}

func TestPublicAPIHypotheses(t *testing.T) {
	spec, err := fairsched.ParseHypothesis(
		"claim facade: fcfs#avg_wait < fcfs#avg_tat")
	if err != nil {
		t.Fatal(err)
	}
	eval, err := fairsched.RunHypotheses([]fairsched.HypothesisSpec{spec},
		fairsched.HypothesisOptions{
			Source: fairsched.SyntheticSource(fairsched.WorkloadConfig{
				Scale: 0.05, SystemSize: 100,
			}),
			Study: fairsched.StudyConfig{SystemSize: 100},
		})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fairsched.RenderFindings(&buf, eval)
	if !strings.Contains(buf.String(), "facade — CONFIRMED") {
		t.Fatalf("unexpected findings:\n%s", buf.String())
	}
}
