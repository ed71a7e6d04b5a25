package fairsched_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"fairsched"
	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/hypothesis"
	"fairsched/internal/job"
	"fairsched/internal/scenario"
	"fairsched/internal/sched"
	"fairsched/internal/swf"
	"fairsched/internal/workload"
)

// writeSWF writes jobs as an SWF v2 trace declaring a systemSize-node
// machine, the way cmd/workloadgen does.
func writeSWF(w io.Writer, jobs []*job.Job, systemSize int) error {
	return swf.Write(w, swf.FromJobs(jobs, swf.Header{
		Version:  2,
		MaxNodes: systemSize,
		MaxProcs: systemSize,
	}))
}

// readSWF reads a trace back into jobs plus the machine size its header
// declares, the way cmd/experiments -in does.
func readSWF(r io.Reader) ([]*job.Job, int, error) {
	jobs, h, err := swf.ReadJobs(r, swf.ConvertOptions{})
	if err != nil {
		return nil, 0, err
	}
	return jobs, h.SystemSize(), nil
}

func mustPolicy(t testing.TB, name string) core.Spec {
	t.Helper()
	spec, err := fairsched.PolicyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

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
	if len(core.MinorSpecs()) != 5 {
		t.Fatal("MinorSpecs should list five configurations")
	}
	names := sched.Names()
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
	if err := writeSWF(&buf, jobs, 100); err != nil {
		t.Fatal(err)
	}
	back, size, err := readSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if size != 100 || len(back) != len(jobs) {
		t.Fatalf("round trip: size=%d jobs=%d", size, len(back))
	}
}

func TestPublicAPICustomSimulator(t *testing.T) {
	jobs := []*fairsched.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 4},
		{ID: 2, User: 2, Submit: 10, Runtime: 50, Estimate: 50, Nodes: 4},
	}
	pol, err := sched.New(mustPolicy(t, "easy"))
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
	experiments.WriteReport(&buf, res)
	if !strings.Contains(buf.String(), "FIG14") {
		t.Fatal("report missing figures")
	}
}

func TestPublicAPIHypotheses(t *testing.T) {
	spec, err := hypothesis.Parse("claim facade: fcfs#avg_wait < fcfs#avg_tat")
	if err != nil {
		t.Fatal(err)
	}
	eval, err := hypothesis.RunCampaign([]hypothesis.Spec{spec}, hypothesis.CampaignOptions{
		Source: scenario.Synthetic(workload.Config{Scale: 0.05, SystemSize: 100}),
		Study:  core.StudyConfig{SystemSize: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	hypothesis.RenderFindings(&buf, eval)
	if !strings.Contains(buf.String(), "facade — CONFIRMED") {
		t.Fatalf("unexpected findings:\n%s", buf.String())
	}
}
