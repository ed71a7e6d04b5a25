package sched

import (
	"fmt"
	"maps"
	"testing"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

// stepEnv is a minimal hand-driven sim.Env: the test moves the clock,
// removes completed jobs and calls the policy itself. Usage is whatever the
// test charged into the tracker (no accrual), so the fairshare order is
// fixed by the script.
type stepEnv struct {
	now     int64
	size    int
	fs      *fairshare.Tracker
	running []sim.RunningJob
	avail   profile.Profile
}

func (e *stepEnv) Now() int64                    { return e.now }
func (e *stepEnv) SystemSize() int               { return e.size }
func (e *stepEnv) Running() []sim.RunningJob     { return e.running }
func (e *stepEnv) Fairshare() *fairshare.Tracker { return e.fs }

func (e *stepEnv) FreeNodes() int {
	free := e.size
	for _, r := range e.running {
		free -= r.Job.Nodes
	}
	return free
}

func (e *stepEnv) Availability() *profile.Profile {
	holds := make([]profile.Hold, 0, len(e.running))
	for _, r := range e.running {
		holds = append(holds, profile.Hold{Until: r.EstimatedCompletion(e.now), Nodes: r.Job.Nodes})
	}
	if err := e.avail.ResetHolds(e.now, e.size, holds); err != nil {
		panic(err)
	}
	return &e.avail
}

func (e *stepEnv) Start(j *job.Job) error {
	if j.Nodes > e.FreeNodes() {
		return fmt.Errorf("stepEnv: job %d needs %d nodes, %d free", j.ID, j.Nodes, e.FreeNodes())
	}
	e.running = append(e.running, sim.RunningJob{Job: j, Start: e.now})
	return nil
}

// runLockstep drives the cached dynamic engine and the noCache reference
// through the same event sequence — the scripted arrivals, every
// completion and every requested wake — on twin environments, and fails at
// the first event after which their reservation tables or running sets
// differ. It returns the cached engine, for its counters, and the
// reservation table right after the last scripted arrival.
func runLockstep(t *testing.T, spec string, size int, fs *fairshare.Tracker, running []sim.RunningJob, arrivals []*job.Job) (*conservativeEngine, map[job.ID]int64) {
	t.Helper()
	pols := [2]*Composite{MustParse(spec), mustParseNoCache(t, spec)}
	var envs [2]*stepEnv
	for i := range envs {
		envs[i] = &stepEnv{size: size, fs: fs, running: append([]sim.RunningJob(nil), running...)}
		pols[i].Reset(envs[i])
	}
	var afterArrivals map[job.ID]int64
	check := func(what string) {
		t.Helper()
		got, want := pols[0].Reservations(envs[0]), pols[1].Reservations(envs[1])
		if !maps.Equal(got, want) {
			t.Fatalf("%s at t=%d: reservations %v, reference %v", what, envs[0].now, got, want)
		}
		if fmt.Sprint(envs[0].running) != fmt.Sprint(envs[1].running) {
			t.Fatalf("%s at t=%d: running %v, reference %v", what, envs[0].now, envs[0].running, envs[1].running)
		}
	}
	for step := 0; step < 1000; step++ {
		env := envs[0]
		// The next event: an arrival, a completion or a wake, earliest first.
		next, have := int64(0), false
		consider := func(at int64) {
			if !have || at < next {
				next, have = at, true
			}
		}
		if len(arrivals) > 0 {
			consider(arrivals[0].Submit)
		}
		for _, r := range env.running {
			consider(r.Start + r.Job.Runtime)
		}
		if w, ok := pols[0].NextWake(env.now); ok {
			consider(w)
		}
		if !have {
			if len(pols[0].Queued()) > 0 {
				t.Fatalf("queue stuck at t=%d", env.now)
			}
			return pols[0].engine.(*conservativeEngine), afterArrivals
		}
		for i := range envs {
			envs[i].now = next
		}
		var done []*job.Job
		for _, r := range env.running {
			if r.Start+r.Job.Runtime == next {
				done = append(done, r.Job)
			}
		}
		switch {
		case len(done) > 0:
			// Like the simulator: release the whole batch, then notify.
			for i, e := range envs {
				kept := e.running[:0]
				for _, r := range e.running {
					if r.Start+r.Job.Runtime != next {
						kept = append(kept, r)
					}
				}
				e.running = kept
				for _, j := range done {
					pols[i].Complete(e, j)
				}
			}
			check(fmt.Sprintf("completion of %d jobs", len(done)))
		case len(arrivals) > 0 && arrivals[0].Submit == next:
			j := arrivals[0]
			arrivals = arrivals[1:]
			for i, e := range envs {
				pols[i].Arrive(e, j)
			}
			check(fmt.Sprintf("arrival of job %d", j.ID))
			if len(arrivals) == 0 {
				afterArrivals = pols[0].Reservations(envs[0])
			}
		default:
			for i, e := range envs {
				pols[i].Wake(e)
			}
			check("wake")
		}
	}
	t.Fatal("lockstep run did not drain")
	return nil, nil
}

// insertScenario: a 16-node machine held by a hog until t=1000; a light
// user's 8-node job reserves [1000,1100), a heavy user's full-machine job
// reserves [1100,1200); then a medium-usage user's 8-node job of estimate
// est arrives and slots between them in the fairshare order.
func insertScenario(est int64) (*fairshare.Tracker, []sim.RunningJob, []*job.Job) {
	fs := fairshare.NewTracker(fairshare.Config{}, 0)
	fs.Charge(2, 50)
	fs.Charge(3, 100)
	hog := &job.Job{ID: 100, User: 9, Runtime: 1000, Estimate: 1000, Nodes: 16}
	arrivals := []*job.Job{
		{ID: 1, User: 1, Submit: 10, Runtime: 100, Estimate: 100, Nodes: 8},
		{ID: 2, User: 3, Submit: 20, Runtime: 100, Estimate: 100, Nodes: 16},
		{ID: 3, User: 2, Submit: 30, Runtime: est, Estimate: est, Nodes: 8},
	}
	return fs, []sim.RunningJob{{Job: hog, Start: 0}}, arrivals
}

// TestConsdynInsertBesideReservations: the newcomer's earliest fit ahead of
// the heavy job, [1000,1100) beside the light job, is free in the standing
// profile, so the arrival is inserted in place and the heavy job keeps its
// reservation.
func TestConsdynInsertBesideReservations(t *testing.T) {
	fs, running, arrivals := insertScenario(100)
	eng, res := runLockstep(t, "consdyn.nomax", 16, fs, running, arrivals)
	if eng.insertHits != 1 || eng.insertMisses != 0 {
		t.Fatalf("insert hits/misses = %d/%d, want 1/0", eng.insertHits, eng.insertMisses)
	}
	if want := map[job.ID]int64{1: 1000, 3: 1000, 2: 1100}; !maps.Equal(res, want) {
		t.Fatalf("reservations after the arrivals %v, want %v", res, want)
	}
}

// TestConsdynInsertOverlapReplays: the newcomer's earliest fit [1000,1200)
// overlaps the heavy job's reservation at 1100, so the in-place insert is
// refused and the suffix replay moves the heavy job to 1200.
func TestConsdynInsertOverlapReplays(t *testing.T) {
	fs, running, arrivals := insertScenario(200)
	eng, res := runLockstep(t, "consdyn.nomax", 16, fs, running, arrivals)
	if eng.insertHits != 0 || eng.insertMisses != 1 {
		t.Fatalf("insert hits/misses = %d/%d, want 0/1", eng.insertHits, eng.insertMisses)
	}
	if want := map[job.ID]int64{1: 1000, 3: 1000, 2: 1200}; !maps.Equal(res, want) {
		t.Fatalf("reservations after the arrivals %v, want %v", res, want)
	}
}
