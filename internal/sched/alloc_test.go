package sched

import (
	"errors"
	"testing"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

// busyEnv is a machine held in full by one long-running job: every arrival
// queues behind it, so an arrival event places the fresh job into the
// conservative engine's cached profile and starts nothing.
type busyEnv struct {
	now     int64
	fs      *fairshare.Tracker
	running []sim.RunningJob
	avail   *profile.Profile
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
func (e *busyEnv) Availability() *profile.Profile { return e.avail }
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
