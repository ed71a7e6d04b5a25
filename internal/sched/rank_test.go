package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// rankProbe drives a preemptive Composite through a simulation and checks
// its preemption choices against a reference built from the comparator
// oracle alone.
// The Composite sees a wrapped environment (rankEnv): at a round's first
// Preempt call — nothing has changed since the round ranked its candidates
// — the probe computes the reference beneficiary and victim order, and
// then checks every victim of the round against it. After every event it
// also checks the beneficiary the trigger would pick. Starts may flag the
// started job's user at risk, so some rounds rank a queue whose keys moved
// since its last sort.
type rankProbe struct {
	*Composite
	t    *testing.T
	r    *rand.Rand
	risk riskSet
	want []*job.Job // victims the round in progress has yet to preempt

	rounds int
}

// rankEnv is the environment the probe hands the Composite.
type rankEnv struct {
	sim.Env
	p *rankProbe
}

func (e rankEnv) Start(j *job.Job) error {
	if e.p.r.Intn(4) == 0 {
		e.p.risk[j.User] = true
	}
	return e.Env.Start(j)
}

func (e rankEnv) Preemptable() bool          { return e.Env.(sim.Preempter).Preemptable() }
func (e rankEnv) CanPreempt(j *job.Job) bool { return e.Env.(sim.Preempter).CanPreempt(j) }

func (e rankEnv) Preempt(j *job.Job) error {
	p := e.p
	if len(p.want) == 0 {
		ben, victims := p.reference(e)
		if got, _ := p.beneficiary(e, e.Fairshare()); got != ben || ben == nil {
			p.t.Fatalf("%s at t=%d: beneficiary %v, reference %v", p.Name(), e.Now(), got, ben)
		}
		p.want = victims
		p.rounds++
	}
	if len(p.want) == 0 || p.want[0] != j {
		p.t.Fatalf("%s at t=%d: preempted %d, reference expects %v", p.Name(), e.Now(), j.ID, ids(p.want))
	}
	p.want = p.want[1:]
	return e.Env.(sim.Preempter).Preempt(j)
}

func (p *rankProbe) Reset(env sim.Env) { p.Composite.Reset(rankEnv{env, p}) }

func (p *rankProbe) Arrive(env sim.Env, j *job.Job) {
	p.Composite.Arrive(rankEnv{env, p}, j)
	p.check(env)
}

func (p *rankProbe) Complete(env sim.Env, j *job.Job) {
	p.Composite.Complete(rankEnv{env, p}, j)
	p.check(env)
}

func (p *rankProbe) Wake(env sim.Env) {
	p.Composite.Wake(rankEnv{env, p})
	p.check(env)
}

// check runs after every event: no round is left half done, and the
// beneficiary matches the reference on whichever path the queue takes.
func (p *rankProbe) check(env sim.Env) {
	if len(p.want) > 0 {
		p.t.Fatalf("%s at t=%d: round stopped short of victims %v", p.Name(), env.Now(), ids(p.want))
	}
	ref, _ := p.reference(rankEnv{env, p})
	if ref == nil {
		return // the trigger does not fire, or nothing is blocked on nodes
	}
	if got, _ := p.beneficiary(env, env.Fairshare()); got != ref {
		p.t.Fatalf("%s at t=%d: beneficiary %v, reference %v", p.Name(), env.Now(), got, ref)
	}
}

// reference is preemptOnce restated over the comparator oracle: the
// trigger's beneficiary (the first job it accepts in a stable oracle sort
// of the queue, or nil
// when none is blocked on nodes) and the victims a round preempts for it,
// in order (none when preempting every candidate would not suffice).
func (p *rankProbe) reference(env rankEnv) (*job.Job, []*job.Job) {
	less := func(a, b *job.Job) bool { return lessOracle(p.order, env, a, b) }
	q := slices.Clone(p.Queued())
	sort.SliceStable(q, func(i, k int) bool { return less(q[i], q[k]) })
	var ben *job.Job
	for _, j := range q {
		if p.spec.PreemptTrigger == PreemptReserve {
			ben = j
			break
		}
		if d, ok := p.slo.deadline(j); ok && env.Now() >= d {
			ben = j
			break
		}
	}
	if ben == nil || ben.Nodes <= env.FreeNodes() {
		return nil, nil
	}
	var cands []sim.RunningJob
	total := 0
	for _, r := range env.Running() {
		if less(ben, r.Job) && env.CanPreempt(r.Job) {
			cands = append(cands, r)
			total += r.Job.Nodes
		}
	}
	need := ben.Nodes - env.FreeNodes()
	if total < need {
		return ben, nil
	}
	sort.SliceStable(cands, func(i, k int) bool {
		a, b := cands[i], cands[k]
		if p.spec.PreemptVictim == VictimNewest {
			if a.Start != b.Start {
				return a.Start > b.Start
			}
			return a.Job.ID > b.Job.ID
		}
		return less(b.Job, a.Job)
	})
	var victims []*job.Job
	for freed := 0; freed < need; {
		v := cands[len(victims)].Job
		victims = append(victims, v)
		freed += v.Nodes
	}
	return ben, victims
}

// TestKeyedPreemptionMatchesLess: the keyed beneficiary scan, victim filter
// and victim sort choose exactly what the oracle-based reference chooses —
// for srpt, for edf under both triggers and both victim rules with users
// flagged at risk mid-run, and for lxf, whose keys move with the clock.
func TestKeyedPreemptionMatchesLess(t *testing.T) {
	specs := []string{
		"srpt",
		"order=sjf+bf=easy+preempt=reserve.newest",
		"edf.preempt",
		"order=edf+bf=easy+preempt=deadline.newest",
		"order=edf+bf=easy+preempt=reserve.lowpri",
		"order=lxf+bf=easy+preempt=reserve.lowpri",
		"order=lxf+bf=easy+preempt=deadline.newest",
	}
	r := rand.New(rand.NewSource(23))
	for _, spec := range specs {
		p := &rankProbe{Composite: MustParse(spec), t: t, r: r}
		for range 40 {
			const users = 6
			deadlines := mapDeadlines{}
			for u := 1; u <= users; u++ {
				if w := r.Intn(4); w > 0 {
					deadlines[u] = int64(w) * 60
				}
			}
			p.risk = riskSet{}
			p.SetSLOContext(deadlines, p.risk)
			jobs := make([]*job.Job, 10+r.Intn(30))
			for i := range jobs {
				runtime := 1 + r.Int63n(600)
				jobs[i] = &job.Job{ID: job.ID(i + 1), User: 1 + r.Intn(users), Submit: 20 * r.Int63n(60),
					Runtime: runtime, Estimate: runtime + r.Int63n(120), Nodes: 1 + r.Intn(8)}
			}
			if _, err := sim.New(sim.Config{SystemSize: 8, Preemptable: true, Validate: true}, p).Run(jobs); err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
		}
		if p.rounds == 0 {
			t.Errorf("%s: no preemption round was checked", spec)
		}
		t.Logf("%s: %d rounds", spec, p.rounds)
	}
}
