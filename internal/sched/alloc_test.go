package sched

import (
	"errors"
	"slices"
	"testing"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

// busyEnv is a machine held in full by one long-running job: every arrival
// queues behind it, so an arrival event places the fresh job into the
// conservative engine's cached profile and starts nothing. It counts
// Availability calls.
type busyEnv struct {
	now        int64
	fs         *fairshare.Tracker
	running    []sim.RunningJob
	avail      *profile.Profile
	availCalls int
}

const busySize = 16

func newBusyEnv(now int64) *busyEnv {
	hog := &job.Job{ID: 1000, User: 99, Runtime: 1 << 20, Estimate: 1 << 20, Nodes: busySize}
	e := &busyEnv{
		now:     now,
		fs:      fairshare.NewTracker(fairshare.Config{}, 0),
		running: []sim.RunningJob{{Job: hog, Start: 0}},
		avail:   profile.New(now, busySize, busySize),
	}
	if err := e.avail.Occupy(now, hog.Estimate, busySize); err != nil {
		panic(err)
	}
	return e
}

func (e *busyEnv) Now() int64                     { return e.now }
func (e *busyEnv) SystemSize() int                { return busySize }
func (e *busyEnv) FreeNodes() int                 { return 0 }
func (e *busyEnv) Running() []sim.RunningJob      { return e.running }
func (e *busyEnv) Fairshare() *fairshare.Tracker  { return e.fs }
func (e *busyEnv) Availability() *profile.Profile { e.availCalls++; return e.avail }
func (e *busyEnv) Start(*job.Job) error           { return errors.New("busyEnv: machine is full") }

// TestConservativeArrivalAllocatesNothing: a steady-state cons.nomax arrival
// event — a warm engine with a standing queue placing one fresh job —
// allocates nothing. Each run undoes its arrival (the queue entry goes back
// to the engine's spare list and the cached profile is restored), so every
// run starts from the same state.
func TestConservativeArrivalAllocatesNothing(t *testing.T) {
	env := newBusyEnv(100)
	pol := MustParse("cons.nomax")
	pol.Reset(env)
	eng := pol.engine.(*conservativeEngine)
	jobs := make([]*job.Job, 33)
	for i := range jobs {
		jobs[i] = &job.Job{ID: job.ID(i + 1), User: i%5 + 1, Submit: env.now,
			Runtime: int64(50 + i), Estimate: int64(100 + 10*i), Nodes: 1 + i%busySize}
		env.fs.Charge(jobs[i].User, float64(i))
	}
	for _, j := range jobs[:32] {
		pol.Arrive(env, j)
	}
	warm := len(eng.queue)
	var saved profile.Profile
	saved.CopyFrom(&eng.prof)
	fresh := jobs[32]
	allocs := testing.AllocsPerRun(100, func() {
		pol.Arrive(env, fresh)
		if len(eng.queue) != warm+1 || !eng.queue[warm].hasRes {
			t.Fatal("arrival was not queued with a reservation")
		}
		eng.spare = append(eng.spare, eng.queue[warm])
		eng.queue = eng.queue[:warm]
		eng.prof.CopyFrom(&saved)
	})
	if allocs != 0 {
		t.Fatalf("steady-state cons.nomax arrival allocates %.1f times, want 0", allocs)
	}
}

// standingQueue queues n jobs of five users with distinct usages on a full
// busyEnv, so every pass keeps them all queued.
func standingQueue(env *busyEnv, pol *Composite, n int) {
	for i := 0; i < n; i++ {
		j := &job.Job{ID: job.ID(i + 1), User: i%5 + 1, Submit: env.now,
			Runtime: int64(50 + i), Estimate: int64(100 + 10*i), Nodes: 1 + i%busySize}
		env.fs.Charge(j.User, float64(i))
		pol.Arrive(env, j)
	}
}

// TestAggressivePassAllocatesNothing: a warm cplant24.nomax.all, edf or
// easy.lxf scheduling pass whose standing queue is out of priority order
// sorts it through the reused key buffer and allocates nothing. edf runs
// under an SLO context with at-risk, targeted and untargeted users; its
// kept queue forgets its sorted state before each pass, as a breach flip
// would make it re-sort. The machine is full, so no candidate fits: the passes never
// read the availability profile (the head's reservation is placed only
// once a candidate fits).
func TestAggressivePassAllocatesNothing(t *testing.T) {
	for _, spec := range []string{"cplant24.nomax.all", "edf", "easy.lxf"} {
		env := newBusyEnv(100)
		pol := MustParse(spec)
		pol.SetSLOContext(mapDeadlines{1: 60, 2: 600, 3: job.MaxTime}, riskSet{2: true, 4: true})
		pol.Reset(env)
		eng := pol.engine.(*aggressiveEngine)
		standingQueue(env, pol, 32)
		allocs := testing.AllocsPerRun(100, func() {
			slices.Reverse(eng.main)
			eng.prio.at = -1
			pol.Wake(env)
			if len(eng.main) != 32 {
				t.Fatal("a job left the standing queue")
			}
		})
		if allocs != 0 {
			t.Fatalf("warm %s pass allocates %.1f times, want 0", spec, allocs)
		}
		if env.availCalls != 0 {
			t.Fatalf("%s passes with nothing fitting read the availability profile %d times", spec, env.availCalls)
		}
	}
}

// TestSkippedPassAllocatesNothing: on a full machine every queued job is
// wider than the free nodes, so once a scan has set the main queue's width
// bound, a warm easy or cplant24.nomax.all pass skips the main queue's
// scan: it allocates nothing, starts nothing and never reads the
// availability profile.
func TestSkippedPassAllocatesNothing(t *testing.T) {
	for _, spec := range []string{"easy", "cplant24.nomax.all"} {
		env := newBusyEnv(100)
		pol := MustParse(spec)
		pol.Reset(env)
		eng := pol.engine.(*aggressiveEngine)
		standingQueue(env, pol, 32)
		if eng.minWidth <= env.FreeNodes() {
			t.Fatalf("%s: width bound %d does not skip a pass with %d free nodes", spec, eng.minWidth, env.FreeNodes())
		}
		allocs := testing.AllocsPerRun(100, func() {
			pol.Wake(env)
			if len(eng.main) != 32 {
				t.Fatal("a job left the standing queue")
			}
		})
		if allocs != 0 {
			t.Fatalf("warm skipped %s pass allocates %.1f times, want 0", spec, allocs)
		}
		if env.availCalls != 0 {
			t.Fatalf("%s: skipped passes read the availability profile %d times", spec, env.availCalls)
		}
	}
}

// TestReservingPassAllocatesNothing: a warm easy, edf or easy.lxf pass on
// a machine with free nodes, where narrow candidates fit by width but would
// delay the blocked head's reservation, places that reservation, starts
// nothing and allocates nothing.
func TestReservingPassAllocatesNothing(t *testing.T) {
	for _, spec := range []string{"easy", "edf", "easy.lxf"} {
		const free = 4
		env := newBusyEnv(100)
		hog := env.running[0].Job
		hog.Nodes, hog.Estimate = busySize-free, 50
		env.avail = profile.New(env.now, busySize, busySize)
		if err := env.avail.Occupy(env.now, env.now+hog.Estimate, hog.Nodes); err != nil {
			t.Fatal(err)
		}
		fit := &freeEnv{busyEnv: env, free: free}
		pol := MustParse(spec)
		pol.SetSLOContext(mapDeadlines{1: 60, 2: 600}, riskSet{2: true})
		pol.Reset(fit)
		eng := pol.engine.(*aggressiveEngine)
		// The head (at risk under edf, first submitted under easy, of the
		// largest expansion factor under lxf) needs the whole machine; every other job fits the free nodes but runs past
		// the hog's release, when the head takes every node.
		pol.Arrive(fit, &job.Job{ID: 1, User: 2, Submit: 0, Runtime: 100, Estimate: 100, Nodes: busySize})
		for i := 2; i <= 16; i++ {
			pol.Arrive(fit, &job.Job{ID: job.ID(i), User: i%2 + 1, Submit: env.now, Runtime: 100, Estimate: int64(100 + i), Nodes: 1 + i%free})
		}
		env.availCalls = 0
		allocs := testing.AllocsPerRun(100, func() {
			pol.Wake(fit)
			if len(eng.main) != 16 || eng.main[0].ID != 1 {
				t.Fatal("the reserving pass changed the queue")
			}
		})
		if allocs != 0 {
			t.Fatalf("warm reserving %s pass allocates %.1f times, want 0", spec, allocs)
		}
		if env.availCalls == 0 {
			t.Fatalf("%s: no pass placed the head's reservation", spec)
		}
	}
}

// freeEnv is a busyEnv with free nodes beside its running job.
type freeEnv struct {
	*busyEnv
	free int
}

func (e *freeEnv) FreeNodes() int { return e.free }

// TestKeptArrivalAllocatesNothing: a warm arrival into a kept queue under
// fcfs, sjf and edf — a binary insertion on fresh keys, then a pass that
// finds the queue current and reads no key — allocates nothing. Each run
// withdraws the fresh job, which keeps the queue sorted.
func TestKeptArrivalAllocatesNothing(t *testing.T) {
	for _, spec := range []string{"easy", "easy.sjf", "edf"} {
		env := newBusyEnv(100)
		pol := MustParse(spec)
		pol.SetSLOContext(mapDeadlines{1: 60, 2: 600, 3: job.MaxTime}, riskSet{2: true, 4: true})
		pol.Reset(env)
		eng := pol.engine.(*aggressiveEngine)
		standingQueue(env, pol, 32)
		fresh := &job.Job{ID: 99, User: 3, Submit: env.now - 50, Runtime: 50, Estimate: 215, Nodes: 2}
		allocs := testing.AllocsPerRun(100, func() {
			pol.Arrive(env, fresh)
			i := slices.Index(eng.main, fresh)
			if i < 0 || !eng.prio.current() {
				t.Fatal("fresh arrival not queued into a current kept queue")
			}
			eng.main = slices.Delete(eng.main, i, i+1)
		})
		if allocs != 0 {
			t.Fatalf("warm %s arrival allocates %.1f times, want 0", spec, allocs)
		}
	}
}

// preemptEnv is a busyEnv whose machine is held by running jobs of
// different estimates and users, every one of them preemptable; Preempt
// only counts, so every round sees the same state.
type preemptEnv struct {
	*busyEnv
	preempted int
}

func (e *preemptEnv) Preemptable() bool        { return true }
func (e *preemptEnv) CanPreempt(*job.Job) bool { return true }
func (e *preemptEnv) Preempt(*job.Job) error   { e.preempted++; return nil }

// TestPreemptOnceAllocatesNothing: a warm preemption round that ranks
// several candidates — srpt's lowpri victims, and edf's deadline
// beneficiary with newest and lowpri victims — allocates nothing.
func TestPreemptOnceAllocatesNothing(t *testing.T) {
	for _, spec := range []string{"srpt", "edf.preempt", "order=edf+bf=easy+preempt=deadline.newest"} {
		env := &preemptEnv{busyEnv: newBusyEnv(1000)}
		env.running = nil
		for i := range 4 {
			env.running = append(env.running, sim.RunningJob{Start: int64(10 * i), Job: &job.Job{ID: job.ID(900 + i),
				User: 5 + i, Submit: 0, Runtime: 5000, Estimate: int64(4000 + 100*i), Nodes: busySize / 4}})
		}
		pol := MustParse(spec)
		pol.SetSLOContext(mapDeadlines{1: 60, 2: 600, 3: job.MaxTime}, riskSet{2: true, 6: true})
		pol.Reset(env)
		for i := range 8 {
			pol.Arrive(env, &job.Job{ID: job.ID(i + 1), User: i%5 + 1, Submit: int64(10 * i),
				Runtime: 50, Estimate: int64(100 + 10*i), Nodes: busySize/4 + 1 + i})
		}
		env.preempted = 0
		allocs := testing.AllocsPerRun(100, func() {
			if !pol.preemptOnce(env, env) {
				t.Fatal("no preemption round")
			}
		})
		if env.preempted < 2*101 {
			t.Fatalf("%s: %d victims over 101 rounds, want at least 2 a round", spec, env.preempted)
		}
		if allocs != 0 {
			t.Fatalf("warm %s preemption round allocates %.1f times, want 0", spec, allocs)
		}
	}
}

// TestConservativeImproveAllocatesNothing: a warm cons.nomax improvement
// pass, sorting its out-of-order standing queue in place, allocates
// nothing.
func TestConservativeImproveAllocatesNothing(t *testing.T) {
	env := newBusyEnv(100)
	pol := MustParse("cons.nomax")
	pol.Reset(env)
	eng := pol.engine.(*conservativeEngine)
	standingQueue(env, pol, 32)
	allocs := testing.AllocsPerRun(100, func() {
		slices.Reverse(eng.queue)
		eng.improve(env, profile.Horizon)
		if eng.holes {
			t.Fatal("improvement did not reach its fixpoint")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm cons.nomax improve pass allocates %.1f times, want 0", allocs)
	}
}

// starvationArrivalAllocs measures a warm arrival of a starvation policy on
// a full machine one day after most of a standing queue was submitted:
// those jobs are past the starvation threshold, and user 1 — far above the
// mean usage — is the heavy user a .fair policy keeps in the main queue, so
// each of its passes classifies live users. A few recent jobs keep both
// policies' main queues longer than one job, so both pay the same queue
// sort. Each run withdraws the fresh job so every run starts from the same
// state. It returns the allocations per arrival and the number of
// starvation-eligible jobs left in the main queue after warm-up.
func starvationArrivalAllocs(t *testing.T, spec string) (allocs float64, heldBack int) {
	t.Helper()
	env := newBusyEnv(hours24 + 1000)
	pol := MustParse(spec)
	pol.Reset(env)
	eng := pol.engine.(*aggressiveEngine)
	env.fs.Charge(1, 1e6)
	for u := 2; u <= 5; u++ {
		env.fs.Charge(u, 10)
	}
	for i := 0; i < 20; i++ {
		pol.Arrive(env, &job.Job{ID: job.ID(i + 1), User: i%5 + 1, Submit: int64(i),
			Runtime: 50, Estimate: int64(100 + 10*i), Nodes: 1 + i%busySize})
	}
	for i := 20; i < 23; i++ {
		pol.Arrive(env, &job.Job{ID: job.ID(i + 1), User: i%5 + 1, Submit: env.now - 10,
			Runtime: 50, Estimate: 60, Nodes: 3})
	}
	for _, j := range eng.main {
		if env.now-j.Submit >= hours24 {
			heldBack++
		}
	}
	fresh := &job.Job{ID: 99, User: 3, Submit: env.now, Runtime: 50, Estimate: 70, Nodes: 2}
	allocs = testing.AllocsPerRun(100, func() {
		pol.Arrive(env, fresh)
		i := slices.Index(eng.main, fresh)
		if i < 0 {
			t.Fatal("fresh arrival not in the main queue")
		}
		eng.main = slices.Delete(eng.main, i, i+1)
	})
	return allocs, heldBack
}

// TestFairStarvationArrivalAllocatesNoMoreThanAll: classifying heavy users
// once per pass, into reused buffers, costs a warm cplant24.nomax.fair
// arrival no allocations beyond those of the cplant24.nomax.all arrival,
// which never classifies.
func TestFairStarvationArrivalAllocatesNoMoreThanAll(t *testing.T) {
	fair, fairHeld := starvationArrivalAllocs(t, "cplant24.nomax.fair")
	all, allHeld := starvationArrivalAllocs(t, "cplant24.nomax.all")
	if fairHeld == 0 || allHeld != 0 {
		t.Fatalf("eligible jobs held in the main queue: fair %d (want the heavy user's), all %d (want 0)", fairHeld, allHeld)
	}
	if fair > all {
		t.Fatalf("warm cplant24.nomax.fair arrival allocates %.1f times, cplant24.nomax.all %.1f", fair, all)
	}
}
