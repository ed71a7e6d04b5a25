package sim

import (
	"math"
	"strings"
	"testing"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
)

// greedy is a minimal test policy: start anything that fits, FCFS.
type greedy struct {
	queue []*job.Job
}

func (p *greedy) Name() string { return "greedy" }
func (p *greedy) Reset(Env)    { p.queue = nil }
func (p *greedy) Arrive(env Env, j *job.Job) {
	p.queue = append(p.queue, j)
	p.try(env)
}
func (p *greedy) Complete(env Env, _ *job.Job) { p.try(env) }
func (p *greedy) Wake(env Env)                 { p.try(env) }
func (p *greedy) NextWake(int64) (int64, bool) { return 0, false }
func (p *greedy) Queued() []*job.Job           { return p.queue }
func (p *greedy) try(env Env) {
	kept := p.queue[:0]
	for _, j := range p.queue {
		if j.Nodes <= env.FreeNodes() {
			if err := env.Start(j); err != nil {
				panic(err)
			}
			continue
		}
		kept = append(kept, j)
	}
	p.queue = kept
}

func run(t *testing.T, cfg Config, jobs []*job.Job) *Result {
	t.Helper()
	cfg.Validate = true
	res, err := New(cfg, &greedy{}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleJobLifecycle(t *testing.T) {
	jobs := []*job.Job{{ID: 1, User: 1, Submit: 100, Runtime: 50, Estimate: 60, Nodes: 4}}
	res := run(t, Config{SystemSize: 8}, jobs)
	if len(res.Records) != 1 {
		t.Fatalf("got %d records", len(res.Records))
	}
	r := res.Records[0]
	if r.Start != 100 || r.Complete != 150 {
		t.Fatalf("start/complete = %d/%d, want 100/150", r.Start, r.Complete)
	}
	if r.Wait() != 0 || r.Turnaround() != 50 {
		t.Fatalf("wait/turnaround = %d/%d", r.Wait(), r.Turnaround())
	}
	if res.Makespan != 50 {
		t.Fatalf("makespan = %d", res.Makespan)
	}
}

func TestQueuedJobStartsOnCompletion(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 8},
		{ID: 2, User: 2, Submit: 10, Runtime: 20, Estimate: 20, Nodes: 8},
	}
	res := run(t, Config{SystemSize: 8}, jobs)
	if got := res.Records[1].Start; got != 100 {
		t.Fatalf("job 2 started at %d, want 100", got)
	}
}

func TestStartValidation(t *testing.T) {
	s := New(Config{SystemSize: 4}, &greedy{})
	j := &job.Job{ID: 1, User: 1, Runtime: 10, Estimate: 10, Nodes: 2}
	if err := s.Start(j); err == nil {
		t.Fatal("Start outside an event accepted")
	}
}

func TestRunRejectsInvalidWorkload(t *testing.T) {
	one := &job.Job{ID: 1, User: 1, Runtime: 10, Estimate: 10, Nodes: 1}
	cases := []struct {
		name    string
		cfg     Config
		pol     Policy
		jobs    []*job.Job
		wantSub string
	}{
		{"too-wide job", Config{SystemSize: 4}, &greedy{},
			[]*job.Job{{ID: 1, User: 1, Runtime: 10, Estimate: 10, Nodes: 100}}, ""},
		{"duplicate ids", Config{SystemSize: 4}, &greedy{}, []*job.Job{one, one}, ""},
		{"nil policy", Config{SystemSize: 4}, nil, nil, "nil policy"},
		{"preempt with max", Config{SystemSize: 4, Preemptable: true, MaxRuntime: 5}, &greedy{},
			[]*job.Job{one}, "mutually exclusive"},
	}
	for _, c := range cases {
		if _, err := New(c.cfg, c.pol).Run(c.jobs); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want it to contain %q", c.name, err, c.wantSub)
		}
	}
}

func TestFairshareAccrualDuringRun(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 7, Submit: 0, Runtime: 1000, Estimate: 1000, Nodes: 4},
		// A second arrival at t=500 forces the tracker to settle mid-run.
		{ID: 2, User: 8, Submit: 500, Runtime: 100, Estimate: 100, Nodes: 1},
	}
	s := New(Config{SystemSize: 8, Validate: true}, &greedy{})
	if _, err := s.Run(jobs); err != nil {
		t.Fatal(err)
	}
	// User 7 ran 4 nodes for 1000s with a decay boundary at 86400 (never
	// crossed): usage = 4000.
	if got := s.Fairshare().Usage(7); got != 4000 {
		t.Fatalf("user 7 usage = %v, want 4000", got)
	}
}

func TestEstimatedCompletionBacksOffExponentially(t *testing.T) {
	r := RunningJob{Job: &job.Job{Estimate: 100, Runtime: 1000}, Start: 0}
	cases := []struct{ now, want int64 }{
		{0, 100}, {99, 100}, {100, 200}, {250, 400}, {500, 800}, {1500, 1600},
	}
	for _, tc := range cases {
		if got := r.EstimatedCompletion(tc.now); got != tc.want {
			t.Errorf("EstimatedCompletion(now=%d) = %d, want %d", tc.now, got, tc.want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	jobs := make([]*job.Job, 0, 50)
	for i := 0; i < 50; i++ {
		jobs = append(jobs, &job.Job{
			ID:       job.ID(i + 1),
			User:     i % 7,
			Submit:   int64(i * 37 % 500),
			Runtime:  int64(i*97%1000 + 1),
			Estimate: int64(i*131%2000 + 1),
			Nodes:    i%16 + 1,
		})
	}
	runOnce := func() []int64 {
		res, err := New(Config{SystemSize: 32, Validate: true}, &greedy{}).Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		starts := make([]int64, len(res.Records))
		for i, r := range res.Records {
			starts[i] = r.Start
		}
		return starts
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at record %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestStaleCompletionNeedsAFinishedRecord: a completion for a job that is
// not running is stale exactly when a kill or a preemption already
// finalized its record; for a job neither running nor finished it panics.
func TestStaleCompletionNeedsAFinishedRecord(t *testing.T) {
	s := New(Config{SystemSize: 1}, &greedy{})
	j := &job.Job{ID: 1, User: 1, Runtime: 10, Estimate: 10, Nodes: 1}
	s.records = newRecordIndex(1, j.ID)
	rec := &Record{Job: j, Finished: true}
	s.records.put(j.ID, rec)
	if _, ok := s.release(j, false); ok {
		t.Fatal("a finished job's completion was not stale")
	}
	rec.Finished = false
	defer func() {
		if recover() == nil {
			t.Fatal("a completion for a queued job did not panic")
		}
	}()
	s.release(j, false)
}

func TestKillAlwaysTruncatesAtEstimate(t *testing.T) {
	jobs := []*job.Job{{ID: 1, User: 1, Submit: 0, Runtime: 1000, Estimate: 300, Nodes: 2}}
	res := run(t, Config{SystemSize: 4, Kill: KillAlways}, jobs)
	r := res.Records[0]
	if !r.Killed || r.Complete != 300 {
		t.Fatalf("killed=%v complete=%d, want killed at 300", r.Killed, r.Complete)
	}
}

func TestKillWhenNeededSparesIdleSystem(t *testing.T) {
	jobs := []*job.Job{{ID: 1, User: 1, Submit: 0, Runtime: 1000, Estimate: 300, Nodes: 2}}
	res := run(t, Config{SystemSize: 4, Kill: KillWhenNeeded}, jobs)
	r := res.Records[0]
	if r.Killed || r.Complete != 1000 {
		t.Fatalf("job killed with no work queued: killed=%v complete=%d", r.Killed, r.Complete)
	}
}

func TestKillWhenNeededKillsWhenWorkQueued(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 1000, Estimate: 300, Nodes: 4},
		// Arrives before the overrun and cannot fit: job 1 dies at its
		// wall-clock limit.
		{ID: 2, User: 2, Submit: 100, Runtime: 10, Estimate: 10, Nodes: 4},
	}
	res := run(t, Config{SystemSize: 4, Kill: KillWhenNeeded}, jobs)
	r1 := res.Records[0]
	if !r1.Killed || r1.Complete != 300 {
		t.Fatalf("overrunning job not killed at limit: killed=%v complete=%d", r1.Killed, r1.Complete)
	}
	if got := res.Records[1].Start; got != 300 {
		t.Fatalf("waiting job started at %d, want 300", got)
	}
}

func TestKillWhenNeededKillsOnLateArrival(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 1000, Estimate: 300, Nodes: 4},
		// Arrives after the limit expired; the overrunner dies on arrival.
		{ID: 2, User: 2, Submit: 600, Runtime: 10, Estimate: 10, Nodes: 4},
	}
	res := run(t, Config{SystemSize: 4, Kill: KillWhenNeeded}, jobs)
	r1 := res.Records[0]
	if !r1.Killed || r1.Complete != 600 {
		t.Fatalf("overrunning job should die at the arrival: killed=%v complete=%d", r1.Killed, r1.Complete)
	}
}

func TestEventsCounted(t *testing.T) {
	jobs := []*job.Job{{ID: 1, User: 1, Submit: 0, Runtime: 10, Estimate: 10, Nodes: 1}}
	res := run(t, Config{SystemSize: 4}, jobs)
	if res.Events < 2 {
		t.Fatalf("events = %d, want at least arrival+completion", res.Events)
	}
}

func TestRunWithDecayWakeups(t *testing.T) {
	// A job queued across a decay boundary forces the simulator's decay
	// wake-up path (queue non-empty at the boundary).
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 2 * 86400, Estimate: 2 * 86400, Nodes: 4},
		{ID: 2, User: 2, Submit: 100, Runtime: 10, Estimate: 10, Nodes: 4},
	}
	cfg := Config{SystemSize: 4, Fairshare: fairshare.Config{DecayFactor: 0.5, DecayInterval: 86400}}
	res := run(t, cfg, jobs)
	if got := res.Records[1].Start; got != 2*86400 {
		t.Fatalf("job 2 started at %d", got)
	}
}

// TestRunRejectsInvalidFairshareConfig: a NaN or out-of-range decay factor
// fails the run instead of poisoning usage or running as the default.
func TestRunRejectsInvalidFairshareConfig(t *testing.T) {
	for _, fs := range []fairshare.Config{{DecayFactor: math.NaN()}, {DecayFactor: 2}, {DecayInterval: -5}} {
		s := New(Config{SystemSize: 10, Fairshare: fs}, &greedy{})
		if _, err := s.Run([]*job.Job{{ID: 1, User: 1, Runtime: 10, Estimate: 10, Nodes: 1}}); err == nil {
			t.Errorf("fairshare %+v accepted", fs)
		}
	}
}
