package sched

import (
	"fmt"

	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

// engine is the backfill-discipline component: it owns the queues and
// reacts to scheduling events by starting jobs through the environment.
// Engines are assembled (with their Order and starvation components) by New
// and driven only through a Composite.
type engine interface {
	reset()
	arrive(env sim.Env, j *job.Job)
	// complete reacts to j's completion. Engines that cache state across
	// events (the conservative revalidation cache) need the job identity to
	// reconcile incrementally; the aggressive family just reschedules.
	complete(env sim.Env, j *job.Job)
	schedule(env sim.Env)
	nextWake(now int64) (int64, bool)
	queued() []*job.Job
	// ranked returns the queue in priority order under the order's present
	// keys; ok is false when the engine cannot vouch for that (its queue is
	// not kept sorted, the keys moved since its last sort, or a starvation
	// queue runs ahead of it).
	ranked() (q []*job.Job, ok bool)
}

// Composite is the generic composed scheduling policy: an Order, a backfill
// engine and an optional starvation component, assembled from a Spec. Every
// policy the paper studies — and every other point in the (order × backfill
// × starvation) design space — is a Composite; there are no other policy
// implementations.
type Composite struct {
	spec   Spec
	engine engine
	order  Order

	// slo carries the run's SLO signals (deadlines, breach risk) for the
	// edf order and the deadline preemption trigger; SetSLOContext fills it
	// in. Zero when the run has no SLO assignment.
	slo sloContext

	// scratch is the reusable mutable copy of the environment's shared
	// availability profile: engines that place reservations copy the
	// per-event base profile into it instead of rebuilding the running
	// jobs' release timeline from scratch.
	scratch profile.Profile

	// victimBuf is the reused victim-candidate buffer of the preemption
	// pass (see preempt.go).
	victimBuf []victim

	// wakes holds the queued jobs' SLO deadlines under preempt=deadline
	// (see preempt.go).
	wakes deadlineWakes
}

// New assembles the runnable policy for a spec.
func New(spec Spec) (*Composite, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	norm := spec.normalized()
	if norm.Key == "" {
		norm.Key = norm.Canonical()
	}
	ord, _ := OrderByName(norm.Order) // Validate vetted every component
	c := &Composite{spec: norm, order: ord}
	if e, ok := ord.(*edfOrder); ok {
		e.ctx = &c.slo
	}
	switch norm.Backfill {
	case BackfillNone:
		c.engine = &listEngine{comp: c, prio: keptSorter(ord)}
	case BackfillConservative, BackfillConservativeDynamic:
		c.engine = &conservativeEngine{
			prio:    newQueueSorter(ord, func(q *reservedJob) *job.Job { return q.job }),
			dynamic: norm.Backfill == BackfillConservativeDynamic,
		}
	default: // noguarantee, easy and depth
		depth := 0 // noguarantee reserves no head
		switch norm.Backfill {
		case BackfillEASY:
			depth = 1
		case BackfillDepth:
			depth = norm.Depth
		}
		c.engine = &aggressiveEngine{comp: c, prio: keptSorter(ord), depth: depth, starve: newStarvation(norm)}
	}
	return c, nil
}

// MustNew is New, panicking on an invalid spec (for registry-sourced specs,
// which are valid by construction).
func MustNew(spec Spec) *Composite {
	c, err := New(spec)
	if err != nil {
		panic(err)
	}
	return c
}

// MustParse builds the policy for a registered name or spec chain,
// panicking on a bad spec (tests and examples).
func MustParse(spec string) *Composite {
	s, err := ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	return MustNew(s)
}

// Spec returns the spec the policy was assembled from (normalized).
func (c *Composite) Spec() Spec { return c.spec }

// SetSLOContext attaches the run's per-user SLO signals: the deadline
// source (slo.Assignment) feeding the edf order and the deadline preemption
// trigger, and the breach-risk signal (fairness.SLOObserver) promoting
// users about to breach. Either may be nil; with no deadlines the edf order
// degrades to FCFS and the deadline trigger never fires. Call before the
// run starts (core.Execute does).
func (c *Composite) SetSLOContext(deadlines DeadlineSource, risk BreachRisk) {
	c.slo.deadlines = deadlines
	c.slo.risk = risk
}

// Name implements sim.Policy.
func (c *Composite) Name() string { return c.spec.Key }

// Reset implements sim.Policy.
func (c *Composite) Reset(env sim.Env) {
	if c.spec.PreemptTrigger != "" {
		if p, ok := env.(sim.Preempter); !ok || !p.Preemptable() {
			panic(fmt.Sprintf("sched: policy %s needs a preempt-capable environment (sim.Config.Preemptable)", c.Name()))
		}
	}
	c.engine.reset()
	c.wakes.reset()
}

// Arrive implements sim.Policy.
func (c *Composite) Arrive(env sim.Env, j *job.Job) {
	if c.spec.PreemptTrigger == PreemptDeadline {
		if d, ok := c.slo.deadline(j); ok {
			c.wakes.push(d, j)
		}
	}
	c.engine.arrive(env, j)
	c.preemptPass(env)
}

// Complete implements sim.Policy.
func (c *Composite) Complete(env sim.Env, j *job.Job) {
	c.engine.complete(env, j)
	c.preemptPass(env)
}

// Wake implements sim.Policy.
func (c *Composite) Wake(env sim.Env) {
	c.engine.schedule(env)
	c.preemptPass(env)
}

// NextWake implements sim.Policy. Deadline-triggered preemption adds the
// earliest future SLO deadline among queued jobs to the engine's own wake
// schedule: deadlines pass between events, and the trigger can only act
// inside one.
func (c *Composite) NextWake(now int64) (int64, bool) {
	at, ok := c.engine.nextWake(now)
	if d, dok := c.wakes.next(now); dok && (!ok || d < at) {
		at, ok = d, true
	}
	return at, ok
}

// Queued implements sim.Policy.
func (c *Composite) Queued() []*job.Job { return c.engine.queued() }

// scratchFrom copies the environment's shared per-event availability
// profile into the composite's reusable scratch profile and returns it.
// The copy is mutable (engines occupy reservations into it); the shared
// base stays pristine for the other components of the same pass.
func (c *Composite) scratchFrom(env sim.Env) *profile.Profile {
	c.scratch.CopyFrom(env.Availability())
	return &c.scratch
}

// start launches j for an engine: every start of the list and aggressive
// engines (the ones preemption composes with) goes through it, so the
// deadline wakes learn which jobs left the queue.
func (c *Composite) start(env sim.Env, j *job.Job) {
	if err := env.Start(j); err != nil {
		panic(err) // capacity was checked; a failure is a policy bug
	}
	if c.spec.PreemptTrigger == PreemptDeadline {
		c.wakes.started(j)
	}
}

// startHeads starts the heads of *q while they fit the free nodes. It
// shortens *q before each start, because observers may read the queue
// (sim.Policy.Queued) from inside env.Start.
func (c *Composite) startHeads(env sim.Env, q *[]*job.Job) {
	for len(*q) > 0 && (*q)[0].Nodes <= env.FreeNodes() {
		var head *job.Job
		*q, head = popHead(*q)
		c.start(env, head)
	}
}
