package main

import (
	"reflect"
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/job"
	"fairsched/internal/scenario"
	"fairsched/internal/sim"
	"fairsched/internal/workload"
)

// reduced is a workload's plan over small inputs of the same shape.
func reduced(t *testing.T, w workloadDef) plan {
	t.Helper()
	p, err := w.plan(7)
	if err != nil {
		t.Fatal(err)
	}
	switch p.source {
	case "synthetic":
		p.generate = func(seed int64) (*scenario.Workload, error) {
			jobs, err := workload.Generate(workload.Config{Seed: seed, Scale: 0.05})
			return &scenario.Workload{Jobs: jobs, SystemSize: 1000}, err
		}
	case "population":
		p.generate = func(seed int64) (*scenario.Workload, error) {
			jobs, err := workload.GeneratePopulation(workload.PopConfig{Seed: seed, Users: 20_000, Jobs: 2_000, Weeks: 1})
			return &scenario.Workload{Jobs: jobs, SystemSize: 1000}, err
		}
	default:
		t.Fatalf("%s: no reduced generator for source %q", w.name, p.source)
	}
	return p
}

// TestTracedExecuteMatchesCore pins the traced pipeline as transparent: for
// every policy of every workload, the decorated run's result, summary, FST
// table and SLO summary deep-equal core.Execute's. edf.preempt and srpt
// only match if the decorator hands the simulator through as the Env (the
// sim.Preempter assertion) and SetSLOContext still reaches the engine.
func TestTracedExecuteMatchesCore(t *testing.T) {
	preempted := 0
	for _, w := range workloads {
		p := reduced(t, w)
		inputs, _, _, err := setup(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range p.cells() {
			jobs, err := c.scen.Apply(inputs[c.seed].Jobs, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			st := p.study
			if st.SLO, err = c.scen.SLOAssignment(jobs); err != nil {
				t.Fatal(err)
			}
			for _, spec := range p.specs {
				want, err := core.Execute(st, spec, jobs)
				if err != nil {
					t.Fatal(err)
				}
				tr := &tracer{}
				got, err := tracedExecute(tr, st, spec, jobs)
				if err != nil {
					t.Fatal(err)
				}
				name := w.name + "/" + c.scen.Name + "/" + spec.Key
				if !reflect.DeepEqual(got.Summary, want.Summary) {
					t.Errorf("%s: summary differs:\n got %+v\nwant %+v", name, *got.Summary, *want.Summary)
				}
				if !reflect.DeepEqual(got.SLO, want.SLO) {
					t.Errorf("%s: SLO summary differs", name)
				}
				if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.FST, want.FST) {
					t.Errorf("%s: records or FST table differ", name)
				}
				if err := checkRun(jobs, got.Result, st.SystemSize); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if tr.calls[layerSched] == 0 || tr.events != want.Result.Events || len(tr.stack) != 0 {
					t.Errorf("%s: tracer saw %d sched calls, %d events (want %d), %d open spans",
						name, tr.calls[layerSched], tr.events, want.Result.Events, len(tr.stack))
				}
				for _, r := range got.Result.Records {
					if r.Preempted {
						preempted++
					}
				}
			}
		}
	}
	if preempted == 0 {
		t.Error("no run preempted a job: the preemption path went untested")
	}
}

// TestTracedPassMatchesCampaign runs each reduced workload through both the
// campaign pass and the traced pass: the digests agree and every output
// check passes.
func TestTracedPassMatchesCampaign(t *testing.T) {
	for _, w := range workloads {
		p := reduced(t, w)
		inputs, jobs, _, err := setup(p)
		if err != nil {
			t.Fatal(err)
		}
		b := newBench(p, inputs, jobs)
		plain, traced := b.run(), b.tracedRun()
		if plain.failed != 0 || traced.failed != 0 {
			t.Errorf("%s: %d plain and %d traced runs failed", w.name, plain.failed, traced.failed)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %s, campaign digest %s", w.name, traced.digest, plain.digest)
		}
		if plain.busy <= 0 || plain.cellMax <= 0 || plain.cellMax > plain.busy {
			t.Errorf("%s: cell timing busy=%v max=%v", w.name, plain.busy, plain.cellMax)
		}
	}
}

// TestCheckRunCatchesBrokenSchedules feeds checkRun schedules that break
// each invariant.
func TestCheckRunCatchesBrokenSchedules(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, Submit: 0, Runtime: 10, Estimate: 10, Nodes: 6},
		{ID: 2, Submit: 5, Runtime: 10, Estimate: 10, Nodes: 6},
	}
	rec := func(j *job.Job, start int64) *sim.Record {
		return &sim.Record{Job: j, Submit: j.Submit, Start: start, Complete: start + j.Runtime, Started: true, Finished: true}
	}
	good := &sim.Result{Records: []*sim.Record{rec(jobs[0], 0), rec(jobs[1], 10)}}
	if err := checkRun(jobs, good, 10); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	cases := map[string]*sim.Result{
		"missing record":  {Records: []*sim.Record{rec(jobs[0], 0)}},
		"start < submit":  {Records: []*sim.Record{rec(jobs[0], 0), rec(jobs[1], 4)}},
		"over capacity":   {Records: []*sim.Record{rec(jobs[0], 0), rec(jobs[1], 9)}},
		"duplicate final": {Records: []*sim.Record{rec(jobs[0], 0), rec(jobs[0], 10), rec(jobs[1], 20)}},
	}
	for name, res := range cases {
		if err := checkRun(jobs, res, 10); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
