package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/sim"
	"fairsched/internal/slo"
	"fairsched/internal/topology"
	"fairsched/internal/workload"
)

// sloFor tags every third user with a wait target and every fifth with a
// wait+slowdown target, so the merged-tracker path is exercised.
func sloFor(jobs []*job.Job) *slo.Assignment {
	b := slo.NewBuilder()
	b.AddClass("tight", slo.Target{Wait: 3600})
	b.AddClass("both", slo.Target{Wait: 24 * 3600, Slowdown: 8})
	seen := map[int]bool{}
	for _, j := range jobs {
		if seen[j.User] {
			continue
		}
		seen[j.User] = true
		switch j.User % 5 {
		case 0, 3:
			b.Tag(j.User, "tight")
		case 1:
			b.Tag(j.User, "both")
		}
	}
	return b.Build()
}

// assertRunsEqual demands two runs describe the identical outcome: the
// same schedule (assertSchedulesEqual) and metric summaries. Summary
// equality is reflect.DeepEqual over every float, so any report rendered
// from the two runs is byte-identical.
func assertRunsEqual(t *testing.T, name string, got, want *Run) {
	t.Helper()
	assertSchedulesEqual(t, name, got, want)
	if !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Errorf("%s: summaries diverged:\n  got:  %+v\n  want: %+v", name, got.Summary, want.Summary)
	}
}

// assertSchedulesEqual demands two runs made the identical schedule: same
// records (field for field, in order), event counts, spans, FST tables and
// SLO summaries.
func assertSchedulesEqual(t *testing.T, name string, got, want *Run) {
	t.Helper()
	if got.Result.Events != want.Result.Events {
		t.Errorf("%s: events %d != %d", name, got.Result.Events, want.Result.Events)
	}
	if len(got.Result.Records) != len(want.Result.Records) {
		t.Fatalf("%s: %d records != %d", name, len(got.Result.Records), len(want.Result.Records))
	}
	for i, g := range got.Result.Records {
		w := want.Result.Records[i]
		if g.Job.ID != w.Job.ID || g.Submit != w.Submit || g.Start != w.Start ||
			g.Complete != w.Complete || g.Killed != w.Killed || g.Finished != w.Finished {
			t.Fatalf("%s: record %d diverged:\n  got:  %+v (job %d)\n  want: %+v (job %d)",
				name, i, *g, g.Job.ID, *w, w.Job.ID)
		}
	}
	if got.Result.FirstStart != want.Result.FirstStart ||
		got.Result.LastCompletion != want.Result.LastCompletion ||
		got.Result.Makespan != want.Result.Makespan {
		t.Errorf("%s: span diverged: got [%d, %d] makespan %d, want [%d, %d] makespan %d", name,
			got.Result.FirstStart, got.Result.LastCompletion, got.Result.Makespan,
			want.Result.FirstStart, want.Result.LastCompletion, want.Result.Makespan)
	}
	if !reflect.DeepEqual(got.FST, want.FST) {
		t.Errorf("%s: FST tables diverged (%d vs %d entries)", name, len(got.FST), len(want.FST))
	}
	if !reflect.DeepEqual(got.SLO, want.SLO) {
		t.Errorf("%s: SLO summaries diverged:\n  got:  %+v\n  want: %+v", name, got.SLO, want.SLO)
	}
}

// tagAll places every user of the workload on one queue.
func tagAll(jobs []*job.Job, queue string) *topology.Placement {
	var b topology.PlacementBuilder
	for _, j := range jobs {
		b.SetQueue(j.User, queue)
	}
	return b.Build()
}

// TestTopologyFlatEquivalence: a single-partition topology must reproduce
// the flat run byte-identically — same records, events, FST, SLO and
// summary — on every workload shape, with and without an SLO assignment.
// "implicit" and "named" declare no leaves, so the spec's Composite runs
// alone; "leaf" routes every user to one declared, uncapped leaf, so the
// same schedule must come out of a single-leaf MultiQueue.
func TestTopologyFlatEquivalence(t *testing.T) {
	h := int64(3600)
	cases := []struct {
		name  string
		cfg   StudyConfig
		scale float64
	}{
		{"calm", StudyConfig{SystemSize: 500, Validate: true}, 0.02},
		{"contended", StudyConfig{SystemSize: 100, Validate: true}, 0.05},
		{"split-upfront", StudyConfig{SystemSize: 100, Split: sim.SplitUpfront, Validate: true}, 0.04},
		{"split-chained", StudyConfig{SystemSize: 100, Split: sim.SplitChained, Validate: true}, 0.04},
		{"kill-always", StudyConfig{SystemSize: 100, Kill: sim.KillAlways, Validate: true}, 0.04},
	}
	_ = h
	topos := map[string]func(cfg *StudyConfig, jobs []*job.Job){
		"implicit": func(cfg *StudyConfig, _ []*job.Job) { cfg.Topology = &topology.Topology{} },
		"named":    func(cfg *StudyConfig, _ []*job.Job) { cfg.Topology = topology.MustParse("part=main") },
		"leaf": func(cfg *StudyConfig, jobs []*job.Job) {
			cfg.Topology, cfg.Placement = topology.MustParse("queue=all"), tagAll(jobs, "all")
		},
	}
	for _, key := range []string{"cplant24.nomax.all", "cons.72max", "easy"} {
		spec, err := SpecByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			for tname, mk := range topos {
				t.Run(key+"/"+c.name+"/"+tname, func(t *testing.T) {
					jobs, err := workload.Generate(workload.Config{Seed: 11, Scale: c.scale, SystemSize: c.cfg.SystemSize})
					if err != nil {
						t.Fatal(err)
					}
					cfg := c.cfg
					cfg.SLO = sloFor(jobs)
					flat, err := Execute(cfg, spec, jobs)
					if err != nil {
						t.Fatal(err)
					}
					mk(&cfg, jobs)
					part, err := Execute(cfg, spec, jobs)
					if err != nil {
						t.Fatal(err)
					}
					if tname == "leaf" {
						part.Summary.Queues = nil // the declared leaf's report row
					}
					assertRunsEqual(t, key+"/"+c.name, part, flat)
				})
			}
		}
	}
}

// TestTopologyFlatEquivalenceRandomized sweeps 30 random small workloads
// with mixed estimate quality through flat and single-partition topology
// runs (mirroring the conservative cache's randomized differential).
func TestTopologyFlatEquivalenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		n := rng.Intn(40) + 5
		jobs := make([]*job.Job, n)
		for i := range jobs {
			runtime := rng.Int63n(500) + 1
			est := runtime
			switch rng.Intn(3) {
			case 0:
				est = runtime * (rng.Int63n(8) + 1)
			case 1:
				est = runtime/2 + 1
			}
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(4) + 1,
				Submit:   rng.Int63n(1000),
				Runtime:  runtime,
				Estimate: est,
				Nodes:    rng.Intn(size) + 1,
			}
		}
		for _, key := range []string{"cplant24.nomax.all", "cons.nomax"} {
			spec, err := SpecByKey(key)
			if err != nil {
				t.Fatal(err)
			}
			cfg := StudyConfig{SystemSize: size, Validate: true}
			flat, err := Execute(cfg, spec, jobs)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Topology = &topology.Topology{}
			part, err := Execute(cfg, spec, jobs)
			if err != nil {
				t.Fatal(err)
			}
			assertRunsEqual(t, key, part, flat)
		}
	}
}

// twoPartitionSetup builds a 2-partition, 3-leaf topology and a placement
// routing users across it: users ≡0 (mod 3) to fast/a, ≡1 to fast/b, the
// rest to the slow partition's leaf.
func twoPartitionSetup(t *testing.T, jobs []*job.Job) (*topology.Topology, *topology.Placement) {
	t.Helper()
	topo, err := topology.Parse("part=fast:60,part=slow:40," +
		"queue=org/a:part=fast:guar=2,queue=org/b:part=fast," +
		"queue=org/c:part=slow:sjf")
	if err != nil {
		t.Fatal(err)
	}
	var b topology.PlacementBuilder
	seen := map[int]bool{}
	for _, j := range jobs {
		if seen[j.User] {
			continue
		}
		seen[j.User] = true
		switch j.User % 3 {
		case 0:
			b.SetQueue(j.User, "org/a")
		case 1:
			b.SetQueue(j.User, "org/b")
		default:
			b.SetQueue(j.User, "org/c")
		}
	}
	return topo, b.Build()
}

// TestPartitionParallelDeterminism: a multi-partition run must be
// byte-identical at every PartitionParallel width — each partition is a
// deterministic event loop over a disjoint workload, and the merge happens
// in declaration order regardless of completion order.
func TestPartitionParallelDeterminism(t *testing.T) {
	jobs, err := workload.Generate(workload.Config{Seed: 7, Scale: 0.05, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Partitions are smaller than the whole machine: cap each job's width
	// at the smallest partition so every routing is feasible.
	for _, j := range jobs {
		if j.Nodes > 40 {
			j.Nodes = 40
		}
	}
	topo, place := twoPartitionSetup(t, jobs)
	spec, err := SpecByKey("cplant24.72max.all")
	if err != nil {
		t.Fatal(err)
	}
	base := StudyConfig{
		SystemSize: 100, Validate: true, Topology: topo, Placement: place,
		SLO: sloFor(jobs), Split: sim.SplitChained,
	}
	var ref *Run
	for _, par := range []int{1, 2, 8} {
		cfg := base
		cfg.PartitionParallel = par
		run, err := Execute(cfg, spec, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if par == 1 {
			ref = run
			continue
		}
		assertRunsEqual(t, "partition-parallel", run, ref)
	}
	if len(ref.Summary.Queues) != 3 {
		t.Fatalf("%d queue rows, want 3", len(ref.Summary.Queues))
	}
	if len(ref.Summary.Partitions) != 2 {
		t.Fatalf("%d partition rows, want 2", len(ref.Summary.Partitions))
	}
	total := 0
	for _, q := range ref.Summary.Queues {
		total += q.Jobs
	}
	if total != len(ref.Result.Records) {
		t.Errorf("queue rows cover %d jobs, run has %d records", total, len(ref.Result.Records))
	}
}

// TestTopologyRejects: routing and configuration errors must surface as
// errors, not silent misroutes.
func TestTopologyRejects(t *testing.T) {
	topo := topology.MustParse("part=main,queue=a,queue=b:sjf")
	var bq, bp topology.PlacementBuilder
	bq.SetQueue(1, "nope")
	bp.SetPartition(1, "ghost")
	cases := []struct {
		name, spec string
		cfg        StudyConfig
		wantSub    string
	}{
		{"undeclared queue tag", "cplant24.nomax.all",
			StudyConfig{SystemSize: 128, Topology: topo, Placement: bq.Build()}, "not a declared leaf"},
		{"undeclared partition tag", "cplant24.nomax.all",
			StudyConfig{SystemSize: 128, Topology: topo, Placement: bp.Build()}, "does not declare"},
		{"equality+topology", "cplant24.nomax.all",
			StudyConfig{SystemSize: 128, Topology: topo, Equality: true}, "equality"},
	}
	for _, c := range cases {
		spec, err := SpecByKey(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Execute(c.cfg, spec, tinyWorkload()); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want it to contain %q", c.name, err, c.wantSub)
		}
	}
}

// TestIdlePartitionChangesNothing is a metamorphic relation: adding a
// partition no user is placed on must leave the schedule exactly as the
// flat run of the first partition's size made it. It also keeps the
// multi-partition merge (record sort, FST union, collector and tracker
// folds) under a byte-level differential.
func TestIdlePartitionChangesNothing(t *testing.T) {
	jobs, err := workload.Generate(workload.Config{Seed: 5, Scale: 0.05, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cplant24.nomax.all", "cons.72max", "easy"} {
		spec, err := SpecByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, split := range []sim.SplitMode{sim.SplitUpfront, sim.SplitChained} {
			cfg := StudyConfig{SystemSize: 100, Validate: true, Split: split, SLO: sloFor(jobs)}
			flat, err := Execute(cfg, spec, jobs)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Topology = topology.MustParse("part=main:100,part=idle:40")
			idle, err := Execute(cfg, spec, jobs)
			if err != nil {
				t.Fatal(err)
			}
			assertSchedulesEqual(t, key, idle, flat)
			if rows := idle.Summary.Partitions; len(rows) != 2 || rows[1].Jobs != 0 {
				t.Errorf("%s: partition rows %+v, want main and an empty idle", key, rows)
			}
		}
	}
}

// TestCapWidthRejectedBeforeRun: a job wider than the tightest cap= quota
// on its leaf's chain could never start, so Execute refuses it up front,
// worded like the simulator's width check and naming the binding queue.
func TestCapWidthRejectedBeforeRun(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 600, Estimate: 600, Nodes: 10},
		{ID: 2, User: 2, Submit: 5, Runtime: 600, Estimate: 600, Nodes: 24},
	}
	var b topology.PlacementBuilder
	b.SetQueue(1, "y")
	b.SetQueue(2, "org/x")
	spec, err := SpecByKey("easy")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ topo, want string }{
		{"queue=org/x:cap=0.23,queue=y", "core: easy: partition default: job 2: nodes 24 exceed queue org/x quota 23 (cap=0.23 of 100 nodes)"},
		{"queue=org:cap=0.15,queue=org/x:cap=0.5,queue=y", "core: easy: partition default: job 2: nodes 24 exceed queue org quota 15 (cap=0.15 of 100 nodes)"},
		{"part=p:30,queue=org:cap=0.5,queue=org/x:cap=0.9,queue=y", "core: easy: partition p: job 2: nodes 24 exceed queue org quota 15 (cap=0.5 of 30 nodes)"},
	} {
		cfg := StudyConfig{SystemSize: 100, Topology: topology.MustParse(c.topo), Placement: b.Build()}
		if _, err := Execute(cfg, spec, jobs); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v\n  want %s", c.topo, err, c.want)
		}
	}
	// A job exactly as wide as its quota runs.
	cfg := StudyConfig{SystemSize: 100, Topology: topology.MustParse("queue=org/x:cap=0.24,queue=y"), Placement: b.Build()}
	if _, err := Execute(cfg, spec, jobs); err != nil {
		t.Errorf("job within its quota: %v", err)
	}
}
