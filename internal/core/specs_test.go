package core

import (
	"strings"
	"testing"

	"fairsched/internal/fairness"
	"fairsched/internal/job"
	"fairsched/internal/sched"
)

func TestSpecKeysNamedLikeThePaper(t *testing.T) {
	want := map[string]bool{
		"cplant24.nomax.all": true, "cplant24.nomax.fair": true,
		"cplant72.nomax.all": true, "cplant24.72max.all": true,
		"cplant72.72max.fair": true, "cons.nomax": true,
		"consdyn.nomax": true, "cons.72max": true, "consdyn.72max": true,
	}
	got := map[string]bool{}
	for _, s := range AllSpecs() {
		got[s.Key] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing policy %s", k)
		}
	}
	if len(AllSpecs()) != 9 {
		t.Errorf("AllSpecs has %d entries", len(AllSpecs()))
	}
}

func TestSpecByKey(t *testing.T) {
	s, err := SpecByKey("cons.72max")
	if err != nil {
		t.Fatal(err)
	}
	if s.Backfill != sched.BackfillConservative || s.MaxRuntime != 72*3600 {
		t.Fatalf("cons.72max spec wrong: %+v", s)
	}
	if _, err := SpecByKey("nonsense"); err == nil {
		t.Fatal("unknown key accepted")
	}
	for _, extra := range []string{"fcfs", "easy", "list.fairshare"} {
		if _, err := SpecByKey(extra); err != nil {
			t.Errorf("extra baseline %s missing: %v", extra, err)
		}
	}
}

func TestSpecByKeyAcceptsComponentChains(t *testing.T) {
	s, err := SpecByKey("order=sjf+bf=easy+max=72h")
	if err != nil {
		t.Fatal(err)
	}
	if s.Order != "sjf" || s.Backfill != sched.BackfillEASY || s.MaxRuntime != 72*3600 {
		t.Fatalf("chain spec wrong: %+v", s)
	}
	_, err = SpecByKey("order=sjf+bf=teleport")
	if err == nil || !strings.Contains(err.Error(), "position") {
		t.Fatalf("bad chain error lacks parse position: %v", err)
	}
}

func TestEverySpecBuildsAPolicy(t *testing.T) {
	for _, key := range sched.Names() {
		spec, err := SpecByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := sched.New(spec)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if pol.Name() != key {
			t.Errorf("%s built policy named %q", key, pol.Name())
		}
		if spec.PreemptTrigger != "" {
			// Preemptive policies must refuse an environment that cannot
			// checkpoint (sim.Config.Preemptable unset).
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Reset accepted a preempt-incapable environment", key)
					}
				}()
				pol.Reset(nil)
			}()
			continue
		}
		pol.Reset(nil)
	}
}

func TestSpecPropertiesMatchNames(t *testing.T) {
	for _, s := range AllSpecs() {
		has72max := s.MaxRuntime == 72*3600
		if has72max != strings.Contains(s.Key, "72max") {
			t.Errorf("%s: MaxRuntime inconsistent with name", s.Key)
		}
		isFair := s.Heavy == sched.HeavyNonheavy
		if isFair != strings.HasSuffix(s.Key, ".fair") {
			t.Errorf("%s: heavy classifier inconsistent with name", s.Key)
		}
		if strings.HasPrefix(s.Key, "cplant") {
			wait72 := s.Wait == 72*3600
			if wait72 != strings.Contains(s.Key, "cplant72") {
				t.Errorf("%s: starvation wait inconsistent with name", s.Key)
			}
		}
	}
}

func TestStartsFeedsSabin(t *testing.T) {
	jobs := tinyWorkload()
	spec, err := SpecByKey("cplant24.nomax.all")
	if err != nil {
		t.Fatal(err)
	}
	cfg := StudyConfig{SystemSize: 128}
	fst, err := fairness.Sabin(Starts(cfg, spec), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fst) != len(jobs) {
		t.Fatalf("sabin fst covers %d of %d jobs", len(fst), len(jobs))
	}
	// The last-arriving job's Sabin FST equals its start in the full run
	// (no later arrivals exist to truncate away).
	full, err := Execute(cfg, spec, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var last *job.Job
	for _, j := range jobs {
		if last == nil || j.Submit > last.Submit {
			last = j
		}
	}
	var lastStart int64 = -1
	for _, r := range full.Result.Records {
		if r.Job.ID == last.ID {
			lastStart = r.Start
		}
	}
	if fst[last.ID] != lastStart {
		t.Fatalf("sabin fst for the last job = %d, actual start %d", fst[last.ID], lastStart)
	}
}

func TestExecuteSkipFST(t *testing.T) {
	spec, _ := SpecByKey("cplant24.nomax.all")
	run, err := Execute(StudyConfig{SystemSize: 128, SkipFST: true}, spec, tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if run.FST != nil {
		t.Fatal("FST computed despite SkipFST")
	}
	if run.Summary.PercentUnfair != 0 {
		t.Fatal("fairness metrics nonzero without FST")
	}
}

func TestDepthSpecResolution(t *testing.T) {
	s, err := SpecByKey("depth4")
	if err != nil {
		t.Fatal(err)
	}
	if s.Backfill != sched.BackfillDepth || s.Depth != 4 {
		t.Fatalf("depth4 spec wrong: %+v", s)
	}
	pol, err := sched.New(s)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "depth4" {
		t.Fatalf("policy name = %q", pol.Name())
	}
	for _, bad := range []string{"depth0", "depth", "depthx", "depth-3"} {
		if _, err := SpecByKey(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestExecuteDepthPolicy(t *testing.T) {
	spec, err := SpecByKey("depth2")
	if err != nil {
		t.Fatal(err)
	}
	run, err := Execute(StudyConfig{SystemSize: 128, Validate: true}, spec, tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if run.Summary.Jobs != len(tinyWorkload()) {
		t.Fatalf("jobs = %d", run.Summary.Jobs)
	}
}

func TestExecuteRejectsInvalidSpec(t *testing.T) {
	bad := Spec{Order: "fairshare", Backfill: "optimistic"}
	if _, err := Execute(StudyConfig{SystemSize: 128}, bad, tinyWorkload()); err == nil {
		t.Fatal("invalid spec executed")
	}
}

// TestExecuteRejectsPreemptWithMax: a preemptive spec given a maximum
// runtime fails in sched.New, before any simulator is configured.
func TestExecuteRejectsPreemptWithMax(t *testing.T) {
	spec, err := SpecByKey("easy.preempt")
	if err != nil {
		t.Fatal(err)
	}
	spec.MaxRuntime = 72 * 3600
	_, err = Execute(StudyConfig{SystemSize: 128}, spec, tinyWorkload())
	if err == nil || !strings.Contains(err.Error(), "preempt is incompatible with max") {
		t.Fatalf("Execute(easy.preempt with max) = %v, want sched's preempt/max rejection", err)
	}
}

func TestExecuteWithEquality(t *testing.T) {
	spec, _ := SpecByKey("easy")
	run, err := Execute(StudyConfig{SystemSize: 128, Equality: true}, spec, tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if run.Equality == nil {
		t.Fatal("equality observer missing")
	}
	if run.Equality.AveragePerJob() < 0 {
		t.Fatal("negative equality deficit")
	}
}
