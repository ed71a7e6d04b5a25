package sim

import (
	"slices"
	"testing"

	"fairsched/internal/job"
)

// wakeLog is a greedy policy that records the instants it is woken.
type wakeLog struct {
	greedy
	wakes []int64
}

func (p *wakeLog) Wake(env Env) {
	p.wakes = append(p.wakes, env.Now())
	p.greedy.Wake(env)
}

// TestNoWakeAfterLastCompletion: a decay-boundary wake pushed while a job
// was queued is withdrawn once the queue drains, so the policy is never
// woken after the last completion and the withdrawn wake is no event.
func TestNoWakeAfterLastCompletion(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 1000, Estimate: 1000, Nodes: 1},
		{ID: 2, User: 2, Submit: 0, Runtime: 10, Estimate: 10, Nodes: 1},
	}
	pol := &wakeLog{}
	obs := &recordingObserver{}
	res, err := New(Config{SystemSize: 1, Validate: true}, pol, obs).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.LastCompletion != 1010 {
		t.Fatalf("last completion %d, want 1010", res.LastCompletion)
	}
	for _, w := range pol.wakes {
		if w > res.LastCompletion {
			t.Fatalf("policy woken at %d, after the last completion (wakes %v)", w, pol.wakes)
		}
	}
	if last := obs.intervals[len(obs.intervals)-1]; last[1] != res.LastCompletion {
		t.Fatalf("clock advanced to %d past the last completion", last[1])
	}
	if res.Events != 4 {
		t.Fatalf("Events = %d, want 4 (two arrivals, two completions)", res.Events)
	}
}

// arrivalLog records the jobs observers see arrive, in order.
type arrivalLog struct {
	BaseObserver
	arrived []*job.Job
}

func (o *arrivalLog) JobArrived(_ Env, j *job.Job, _ []*job.Job) {
	o.arrived = append(o.arrived, j)
}

// TestArrivalsInSubmitThenWorkloadOrder: staggered split segments land out
// of time order in the submission list, and the workload itself is not
// sorted; observers must still see arrivals in (submit, workload order),
// the order one push per submission would pop.
func TestArrivalsInSubmitThenWorkloadOrder(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 200, Runtime: 50, Estimate: 50, Nodes: 1},
		{ID: 2, User: 2, Submit: 0, Runtime: 350, Estimate: 400, Nodes: 1}, // 4 segments at 0, 100, 200, 300
		{ID: 3, User: 3, Submit: 100, Runtime: 50, Estimate: 50, Nodes: 1},
		{ID: 4, User: 4, Submit: 100, Runtime: 50, Estimate: 50, Nodes: 1},
		{ID: 5, User: 5, Submit: 0, Runtime: 50, Estimate: 50, Nodes: 1},
	}
	obs := &arrivalLog{}
	cfg := Config{SystemSize: 8, MaxRuntime: 100, Split: SplitStaggered, Validate: true}
	if _, err := New(cfg, &greedy{}, obs).Run(jobs); err != nil {
		t.Fatal(err)
	}
	type arrival struct {
		submit int64
		id     job.ID // the original's id for a segment
	}
	var got []arrival
	for _, j := range obs.arrived {
		id := j.ID
		if j.Parent != 0 {
			id = j.Parent
		}
		got = append(got, arrival{j.Submit, id})
	}
	want := []arrival{{0, 2}, {0, 5}, {100, 2}, {100, 3}, {100, 4}, {200, 1}, {200, 2}, {300, 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("arrival order %v, want %v", got, want)
	}

	// Unsplit, the stream is sorted on a copy: the caller's slice keeps
	// its order.
	obs = &arrivalLog{}
	if _, err := New(Config{SystemSize: 8, Validate: true}, &greedy{}, obs).Run(jobs); err != nil {
		t.Fatal(err)
	}
	var ids, order []job.ID
	for _, j := range obs.arrived {
		ids = append(ids, j.ID)
	}
	for _, j := range jobs {
		order = append(order, j.ID)
	}
	if want := []job.ID{2, 5, 3, 4, 1}; !slices.Equal(ids, want) {
		t.Fatalf("unsplit arrival order %v, want %v", ids, want)
	}
	if want := []job.ID{1, 2, 3, 4, 5}; !slices.Equal(order, want) {
		t.Fatalf("workload reordered to %v", order)
	}
}

// indexProbe is a greedy policy that checks, after every scheduling pass,
// that runningIndex finds each running job at its position and reports
// every queued job as not running.
type indexProbe struct {
	greedy
	t      *testing.T
	checks int
}

func (p *indexProbe) Arrive(env Env, j *job.Job)   { p.greedy.Arrive(env, j); p.check(env) }
func (p *indexProbe) Complete(env Env, j *job.Job) { p.greedy.Complete(env, j); p.check(env) }

func (p *indexProbe) check(env Env) {
	s := env.(*Simulator)
	for i, r := range s.running {
		if got := s.runningIndex(r.Job.ID); got != i {
			p.t.Fatalf("t=%d: runningIndex(%d) = %d, want %d", s.now, r.Job.ID, got, i)
		}
	}
	for _, j := range p.queue {
		if got := s.runningIndex(j.ID); got != -1 {
			p.t.Fatalf("t=%d: queued job %d found running at %d", s.now, j.ID, got)
		}
	}
	p.checks++
}

// TestRunningIndexFindsSameInstantBatches: several jobs start at each of a
// few instants and leave in an order unrelated to their start order, so the
// lookup by start time must scan every job of a same-instant batch.
func TestRunningIndexFindsSameInstantBatches(t *testing.T) {
	var jobs []*job.Job
	for i := 1; i <= 12; i++ {
		jobs = append(jobs, &job.Job{ID: job.ID(i), User: i % 3, Submit: 0, Runtime: int64(100 + 37*(i%5)), Estimate: 400, Nodes: 1})
	}
	probe := &indexProbe{t: t}
	res, err := New(Config{SystemSize: 4, Validate: true}, probe).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	starts := map[int64]int{}
	for _, r := range res.Records {
		starts[r.Start]++
	}
	if starts[0] != 4 || probe.checks == 0 {
		t.Fatalf("want a 4-job batch at t=0 and probe checks, got starts %v, %d checks", starts, probe.checks)
	}
}
