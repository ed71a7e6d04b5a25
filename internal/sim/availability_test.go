package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fairsched/internal/job"
	"fairsched/internal/profile"
)

// availProbe is a policy that inspects the shared availability profile
// during its scheduling events.
type availProbe struct {
	greedy
	t       *testing.T
	checked bool
}

func (p *availProbe) Arrive(env Env, j *job.Job) {
	p.inspect(env)
	p.greedy.Arrive(env, j)
}

func (p *availProbe) inspect(env Env) {
	prof := env.Availability()
	now := env.Now()
	if prof.Origin() != now {
		p.t.Errorf("availability origin %d != now %d", prof.Origin(), now)
	}
	if got := prof.FreeAt(now); got != env.FreeNodes() {
		p.t.Errorf("availability free at now = %d, want FreeNodes %d", got, env.FreeNodes())
	}
	if got := prof.SteadyFree(); got != env.SystemSize() {
		p.t.Errorf("availability steady free = %d, want full system %d", got, env.SystemSize())
	}
	// Each running job's nodes return exactly at its estimated completion.
	for _, r := range env.Running() {
		ec := r.EstimatedCompletion(now)
		if ec <= now {
			continue
		}
		before, after := prof.FreeAt(ec-1), prof.FreeAt(ec)
		if after < before {
			p.t.Errorf("capacity shrank across a release at %d: %d -> %d", ec, before, after)
		}
	}
	// The cache returns the same profile while nothing changed...
	if again := env.Availability(); again != prof {
		p.t.Error("availability rebuilt without invalidation")
	}
	p.checked = true
}

func TestAvailabilityReflectsRunningSetAndCaches(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 120, Nodes: 6},
		{ID: 2, User: 2, Submit: 10, Runtime: 200, Estimate: 200, Nodes: 2},
		{ID: 3, User: 3, Submit: 20, Runtime: 50, Estimate: 60, Nodes: 4},
		{ID: 4, User: 4, Submit: 150, Runtime: 80, Estimate: 80, Nodes: 8},
	}
	probe := &availProbe{t: t}
	if _, err := New(Config{SystemSize: 8, Validate: true}, probe).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if !probe.checked {
		t.Fatal("probe never ran")
	}
}

// startInvalidates is a policy asserting that Start invalidates the shared
// profile within one scheduling pass.
type startInvalidates struct {
	greedy
	t       *testing.T
	checked bool
}

func (p *startInvalidates) Arrive(env Env, j *job.Job) {
	if j.Nodes <= env.FreeNodes() {
		before := env.Availability().FreeAt(env.Now())
		if err := env.Start(j); err != nil {
			p.t.Fatal(err)
		}
		after := env.Availability().FreeAt(env.Now())
		if after != before-j.Nodes {
			p.t.Errorf("availability stale after Start: free %d -> %d, want %d",
				before, after, before-j.Nodes)
		}
		p.checked = true
		return
	}
	p.greedy.Arrive(env, j)
}

func TestAvailabilityInvalidatedByStart(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 3},
		{ID: 2, User: 2, Submit: 5, Runtime: 100, Estimate: 100, Nodes: 3},
	}
	probe := &startInvalidates{t: t}
	if _, err := New(Config{SystemSize: 8, Validate: true}, probe).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if !probe.checked {
		t.Fatal("probe never started a job")
	}
}

// simWithRunning returns a simulator at time now with the given running set,
// the state Availability reads, without running a workload.
func simWithRunning(size int, now int64, running []RunningJob) *Simulator {
	s := New(Config{SystemSize: size}, &greedy{})
	s.now = now
	s.running = running
	return s
}

// randomRunning draws a running set that fits a machine of `size` nodes at
// time now: many jobs have overrun their estimates (EstimatedCompletion
// doubles past now), and some share a start and estimate with an earlier
// job, so their promised release times coincide.
func randomRunning(rng *rand.Rand, size int, now int64) []RunningJob {
	var running []RunningJob
	used := 0
	for id := job.ID(1); ; id++ {
		n := rng.Intn(6) + 1
		if used+n > size || rng.Intn(16) == 0 {
			return running
		}
		used += n
		r := RunningJob{
			Job:   &job.Job{ID: id, User: int(id % 7), Estimate: rng.Int63n(600), Nodes: n},
			Start: now - rng.Int63n(1500),
		}
		if len(running) > 0 && rng.Intn(4) == 0 {
			twin := running[rng.Intn(len(running))]
			r.Start, r.Job.Estimate = twin.Start, twin.Job.Estimate
		}
		running = append(running, r)
	}
}

// TestQuickAvailabilityMatchesOccupyPerJob pins the sort-once availability
// build to its definition: a full-capacity profile at now with one Occupy
// per running job up to its promised release time.
func TestQuickAvailabilityMatchesOccupyPerJob(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 64
		now := 1000 + rng.Int63n(1000)
		s := simWithRunning(size, now, randomRunning(rng, size, now))
		want := profile.New(now, size, size)
		for _, r := range s.running {
			if err := want.Occupy(now, r.EstimatedCompletion(now), r.Job.Nodes); err != nil {
				return false
			}
		}
		wt, wf := want.Breakpoints()
		for pass := 0; pass < 2; pass++ { // a cold build, then a rebuild in place
			s.availDirty = true
			gt, gf := s.Availability().Breakpoints()
			if !slices.Equal(gt, wt) || !slices.Equal(gf, wf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAvailabilityRebuildAllocatesNothing: a warm rebuild of the shared
// availability profile reuses its breakpoints and its release scratch.
func TestAvailabilityRebuildAllocatesNothing(t *testing.T) {
	const size = 256
	now := int64(5000)
	var running []RunningJob
	for i := 0; i < 60; i++ {
		j := &job.Job{ID: job.ID(i + 1), User: i % 7, Estimate: int64(100 + 41*(i%17)), Nodes: 4}
		running = append(running, RunningJob{Job: j, Start: now - int64(53*i)})
	}
	s := simWithRunning(size, now, running)
	s.Availability()
	allocs := testing.AllocsPerRun(200, func() {
		s.availDirty = true
		s.Availability()
	})
	if allocs != 0 {
		t.Fatalf("warm Availability rebuild allocates %.1f times, want 0", allocs)
	}
}
