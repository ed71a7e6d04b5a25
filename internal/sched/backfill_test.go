package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

// passEnv is a frozen scheduling instant for driving one backfill pass
// directly: a running set, the availability profile it implies, and a
// free-node count that each Start draws down. It counts the pass's
// Availability calls.
type passEnv struct {
	now        int64
	size       int
	free       int
	running    []sim.RunningJob
	avail      *profile.Profile
	started    []*job.Job
	availCalls int
}

func (e *passEnv) Now() int64                     { return e.now }
func (e *passEnv) SystemSize() int                { return e.size }
func (e *passEnv) FreeNodes() int                 { return e.free }
func (e *passEnv) Running() []sim.RunningJob      { return e.running }
func (e *passEnv) Fairshare() *fairshare.Tracker  { return nil }
func (e *passEnv) Availability() *profile.Profile { e.availCalls++; return e.avail }
func (e *passEnv) Start(j *job.Job) error {
	if j.Nodes > e.free {
		return fmt.Errorf("passEnv: job %d needs %d nodes, %d free", j.ID, j.Nodes, e.free)
	}
	e.free -= j.Nodes
	e.started = append(e.started, j)
	return nil
}

// randomPassEnv builds a random running set at now. Start times and
// estimates sit on a 25-second grid, so running jobs often share a release
// time and candidates often end exactly at the head's reservation; start
// times reach back past some estimates, so overrunning jobs' promised
// releases back off.
func randomPassEnv(rng *rand.Rand, now int64, size int) *passEnv {
	e := &passEnv{now: now, size: size, free: size}
	var holds []profile.Hold
	for n := rng.Intn(10); n > 0; n-- {
		nodes := rng.Intn(size/3) + 1
		if nodes > e.free {
			break
		}
		est := 50 * int64(rng.Intn(8)+1)
		r := sim.RunningJob{
			Job:   &job.Job{ID: job.ID(1000 + n), Estimate: est, Runtime: est, Nodes: nodes},
			Start: now - 25*rng.Int63n(3*est/25),
		}
		e.running = append(e.running, r)
		holds = append(holds, profile.Hold{Until: r.EstimatedCompletion(now), Nodes: nodes})
		e.free -= nodes
	}
	e.avail = new(profile.Profile)
	if err := e.avail.ResetHolds(now, size, holds); err != nil {
		panic(err)
	}
	return e
}

// TestShadowRuleMatchesProfileRule pins the backfill pass's depth ≤ 1 path
// to its depth ≥ 2 path. With one reserved head the pass tests candidates
// by canBackfill with the shadow decrement on the shared availability
// profile; at every step that must admit exactly the candidates that fit
// the free nodes and, from now on, a scratch profile holding the head's
// reservation and every rectangle backfilled so far (fitsNow).
func TestShadowRuleMatchesProfileRule(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size, now = 32, int64(10000)
		env := randomPassEnv(rng, now, size)
		// The pass reserves a head only after the fitting heads started, so
		// the head is blocked whenever anything runs.
		nodes := rng.Intn(size) + 1
		if env.free < size {
			nodes = env.free + 1 + rng.Intn(size-env.free)
		}
		head := &job.Job{ID: 1, Estimate: 25 * int64(rng.Intn(16)+1), Nodes: nodes}
		q := []*job.Job{head}
		for i := rng.Intn(24); i > 0; i-- {
			q = append(q, &job.Job{ID: job.ID(len(q) + 1), Estimate: 25 * int64(rng.Intn(24)+1), Nodes: rng.Intn(size/2) + 1})
		}
		split := 1 + rng.Intn(len(q))
		cands := append([]*job.Job(nil), q[1:]...)

		// The profile rule, candidate by candidate.
		scratch := env.avail.Clone()
		if _, err := reserve(scratch, now, head); err != nil {
			t.Fatal(err)
		}
		free := env.free
		var want []*job.Job
		for _, c := range cands {
			if c.Nodes <= free && fitsNow(scratch, now, c) {
				if err := scratch.Occupy(now, now+c.Estimate, c.Nodes); err != nil {
					t.Fatal(err)
				}
				free -= c.Nodes
				want = append(want, c)
			}
		}

		e := aggressiveEngine{comp: &Composite{}, starve: &starvation{depth: 1}, starved: q[:split], main: q[split:]}
		e.backfill(env)
		keptQ, keptTail := e.starved, e.main
		if len(keptQ) == 0 || keptQ[0] != head {
			t.Logf("seed %d: the reserved head left the queue", seed)
			return false
		}
		if len(env.started)+len(keptQ)+len(keptTail) != len(q) {
			t.Logf("seed %d: %d started + %d kept of %d jobs", seed, len(env.started), len(keptQ)+len(keptTail), len(q))
			return false
		}
		for i := 0; i < max(len(want), len(env.started)); i++ {
			if i >= len(want) || i >= len(env.started) || want[i] != env.started[i] {
				t.Logf("seed %d: shadow rule started %v, profile rule %v", seed, ids(env.started), ids(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func ids(q []*job.Job) []job.ID {
	out := make([]job.ID, len(q))
	for i, j := range q {
		out[i] = j.ID
	}
	return out
}
