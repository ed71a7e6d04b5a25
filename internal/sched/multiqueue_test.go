package sched

import (
	"strings"
	"testing"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/sim"
	"fairsched/internal/workload"
)

func leafSpec(t *testing.T, s string) *Spec {
	t.Helper()
	sp, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return &sp
}

func TestNewMultiQueueRejects(t *testing.T) {
	fcfs := Spec{Order: "fcfs"}
	one := []QueueConfig{{Path: "a", Spec: &fcfs}}
	if _, err := NewMultiQueue(one, nil, fairshare.Config{}, 0); err == nil {
		t.Error("nil route accepted")
	}
	route := func(*job.Job) int { return 0 }
	if _, err := NewMultiQueue([]QueueConfig{{Path: "a"}}, route, fairshare.Config{}, 0); err == nil {
		t.Error("tree with no leaf queues accepted")
	}
	if _, err := NewMultiQueue(one, route, fairshare.Config{DecayFactor: 2}, 0); err == nil {
		t.Error("decay factor 2 accepted")
	}
}

// TestMultiQueueSingleLeafTransparent: with one leaf and no quotas the
// wrapper must reproduce the flat Composite's schedule event for event —
// the policy-level half of the flat-equivalence guarantee.
func TestMultiQueueSingleLeafTransparent(t *testing.T) {
	h := int64(3600)
	cases := []struct {
		name  string
		cfg   sim.Config
		scale float64
	}{
		{"calm", sim.Config{SystemSize: 500, Validate: true}, 0.02},
		{"contended", sim.Config{SystemSize: 100, Validate: true}, 0.05},
		{"split-chained", sim.Config{SystemSize: 100, MaxRuntime: 24 * h, Split: sim.SplitChained, Validate: true}, 0.04},
	}
	for _, spec := range []string{"cplant24.nomax.all", "cons.nomax", "easy"} {
		for _, c := range cases {
			t.Run(spec+"/"+c.name, func(t *testing.T) {
				jobs, err := workload.Generate(workload.Config{Seed: 11, Scale: c.scale, SystemSize: c.cfg.SystemSize})
				if err != nil {
					t.Fatal(err)
				}
				sp := leafSpec(t, spec)
				mq, err := NewMultiQueue(
					[]QueueConfig{{Path: "", Spec: sp}},
					func(*job.Job) int { return 0 },
					c.cfg.Fairshare, c.cfg.FairshareEpoch)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.New(c.cfg, mq).Run(jobs)
				if err != nil {
					t.Fatal(err)
				}
				want := runRecords(t, MustParse(spec), c.cfg, jobs)
				assertSameSchedule(t, spec+"/"+c.name, got, want)
			})
		}
	}
}

// TestMultiQueueCapEnforced: a leaf under cap=0.5 of a 16-node system must
// never have more than 8 of its nodes running at once, even with enough
// queued demand to fill the machine; the uncapped leaf may use everything.
func TestMultiQueueCapEnforced(t *testing.T) {
	const size = 16
	var jobs []*job.Job
	for i := 0; i < 40; i++ {
		user := 1 // capped leaf
		if i%2 == 1 {
			user = 2 // free leaf
		}
		jobs = append(jobs, &job.Job{
			ID: job.ID(i + 1), User: user, Submit: int64(i),
			Runtime: 500, Estimate: 500, Nodes: 4,
		})
	}
	mq, err := NewMultiQueue(
		[]QueueConfig{
			{Path: "capped", Spec: leafSpec(t, "easy"), Cap: 0.5},
			{Path: "free", Spec: leafSpec(t, "easy")},
		},
		func(j *job.Job) int {
			if j.User == 1 {
				return 0
			}
			return 1
		},
		fairshare.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(sim.Config{SystemSize: size, Validate: true}, mq).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(jobs) {
		t.Fatalf("%d records, want %d", len(res.Records), len(jobs))
	}
	// Sweep the capped users' records for peak concurrent node usage.
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, r := range res.Records {
		if r.Job.User != 1 {
			continue
		}
		edges = append(edges, edge{r.Start, r.Job.Nodes}, edge{r.Complete, -r.Job.Nodes})
	}
	peak, cur := 0, 0
	for {
		best := -1
		var bestAt int64
		for i, e := range edges {
			if e.delta == 0 {
				continue
			}
			if best == -1 || e.at < bestAt || (e.at == bestAt && e.delta < edges[best].delta) {
				best, bestAt = i, e.at
			}
		}
		if best == -1 {
			break
		}
		cur += edges[best].delta
		edges[best].delta = 0
		if cur > peak {
			peak = cur
		}
	}
	if peak > size/2 {
		t.Fatalf("capped leaf peaked at %d nodes, quota is %d", peak, size/2)
	}
	if peak == 0 {
		t.Fatal("capped leaf never ran anything")
	}
}

// TestMultiQueueNameAndPaths: the trivial tree keeps the leaf's own name
// (reports stay flat-identical); multi-leaf trees list path:policy pairs.
func TestMultiQueueNameAndPaths(t *testing.T) {
	route := func(*job.Job) int { return 0 }
	one, err := NewMultiQueue([]QueueConfig{{Path: "", Spec: leafSpec(t, "easy")}}, route, fairshare.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if one.Name() != MustParse("easy").Name() {
		t.Errorf("single-leaf Name() = %q, want the leaf's own %q", one.Name(), MustParse("easy").Name())
	}
	two, err := NewMultiQueue([]QueueConfig{
		{Path: "a", Spec: leafSpec(t, "easy")},
		{Path: "b", Spec: leafSpec(t, "fcfs")},
	}, route, fairshare.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := two.Name(); !strings.HasPrefix(n, "queues[a:") || !strings.Contains(n, ",b:") {
		t.Errorf("multi-leaf Name() = %q", n)
	}
	if p := two.LeafPaths(); len(p) != 2 || p[0] != "a" || p[1] != "b" {
		t.Errorf("LeafPaths() = %v", p)
	}
}
