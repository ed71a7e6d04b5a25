package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fairsched/internal/job"
	"fairsched/internal/profile"
)

// chaosPolicy starts, leaves queued and preempts jobs at random, and checks
// the shared availability profile against its definition before and after
// every action. It reads the profile only on some events, so the release
// index is built mid-run over a non-empty running set and then refreshed
// across several clock advances at once.
type chaosPolicy struct {
	rng        *rand.Rand
	queue      []*job.Job
	preempts   int
	errs       []string
	availReads int
}

func (p *chaosPolicy) Name() string                 { return "chaos" }
func (p *chaosPolicy) Reset(Env)                    { p.queue = nil }
func (p *chaosPolicy) Queued() []*job.Job           { return p.queue }
func (p *chaosPolicy) Complete(env Env, _ *job.Job) { p.step(env) }
func (p *chaosPolicy) Wake(env Env)                 { p.step(env) }

func (p *chaosPolicy) Arrive(env Env, j *job.Job) {
	p.queue = append(p.queue, j)
	p.step(env)
}

// NextWake asks for clock advances with no arrival or completion on them.
func (p *chaosPolicy) NextWake(now int64) (int64, bool) {
	if len(p.queue) == 0 {
		return 0, false
	}
	return now + 1 + p.rng.Int63n(150), true
}

func (p *chaosPolicy) step(env Env) {
	p.maybeCheck(env, "event")
	if pr, ok := env.(Preempter); ok && p.preempts < 25 && len(env.Running()) > 0 && p.rng.Intn(4) == 0 {
		if victim := env.Running()[p.rng.Intn(len(env.Running()))].Job; pr.CanPreempt(victim) {
			if err := pr.Preempt(victim); err != nil {
				panic(err)
			}
			p.preempts++
			p.maybeCheck(env, fmt.Sprintf("preempt %d", victim.ID))
		}
	}
	kept := p.queue[:0]
	for _, j := range p.queue {
		if j.Nodes > env.FreeNodes() || p.rng.Intn(4) == 0 {
			kept = append(kept, j)
			continue
		}
		if err := env.Start(j); err != nil {
			panic(err)
		}
		p.maybeCheck(env, fmt.Sprintf("start %d", j.ID))
	}
	clear(p.queue[len(kept):])
	p.queue = kept
}

// maybeCheck compares Availability with one Occupy per running job up to
// its promised release time, on two of every three calls.
func (p *chaosPolicy) maybeCheck(env Env, what string) {
	if p.rng.Intn(3) == 0 {
		return
	}
	p.availReads++
	now, size := env.Now(), env.SystemSize()
	want := profile.New(now, size, size)
	for _, r := range env.Running() {
		if err := want.Occupy(now, r.EstimatedCompletion(now), r.Job.Nodes); err != nil {
			panic(err)
		}
	}
	wt, wf := want.Breakpoints()
	gt, gf := env.Availability().Breakpoints()
	if !slices.Equal(gt, wt) || !slices.Equal(gf, wf) {
		p.errs = append(p.errs, fmt.Sprintf("t=%d after %s: availability %v/%v, want %v/%v", now, what, gt, gf, wt, wf))
	}
}

// TestQuickReleaseIndexMatchesOccupyPerJob drives random start, complete,
// preempt and clock-advance sequences — underestimated jobs overrun their
// promised release (EstimatedCompletion backs off), and twin jobs share
// submit times and estimates, so releases coincide — under every kill
// policy, and checks after each step that the availability profile built
// from the simulator's release index equals its per-job definition. The
// runs validate, so the index's own invariants are checked after every
// event too.
func TestQuickReleaseIndexMatchesOccupyPerJob(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 32
		n := rng.Intn(40) + 5
		jobs := make([]*job.Job, n)
		for i := range jobs {
			est := rng.Int63n(300) + 1
			runtime := est
			switch rng.Intn(3) {
			case 0:
				runtime = est*int64(rng.Intn(4)+1) + rng.Int63n(est) // overruns
			case 1:
				runtime = rng.Int63n(est) + 1
			}
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(5) + 1,
				Submit:   rng.Int63n(2000),
				Runtime:  runtime,
				Estimate: est,
				Nodes:    rng.Intn(size/2) + 1,
			}
			if i > 0 && rng.Intn(4) == 0 {
				twin := jobs[rng.Intn(i)]
				jobs[i].Submit, jobs[i].Estimate, jobs[i].Runtime = twin.Submit, twin.Estimate, twin.Runtime
			}
		}
		cfg := Config{SystemSize: size, Validate: true, Kill: KillPolicy(rng.Intn(3))}
		cfg.Preemptable = rng.Intn(2) == 0
		pol := &chaosPolicy{rng: rng}
		if _, err := New(cfg, pol).Run(jobs); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, e := range pol.errs {
			t.Logf("seed %d: %s", seed, e)
		}
		return len(pol.errs) == 0 && pol.availReads > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
