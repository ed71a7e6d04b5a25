package sched

import (
	"fmt"
	"sort"

	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// Checkpoint preemption: the fourth orthogonal policy component
// (`preempt=<trigger>.<victim>`). After every regular scheduling pass the
// Composite checks the trigger — a blocked reservation head (reserve) or a
// queued job already past its SLO deadline (deadline) — and, when it fires,
// checkpoints just enough strictly-lower-priority running jobs to start the
// beneficiary, then reruns the engine's pass over the freed nodes. The
// simulator resubmits each victim's remainder as a chained segment
// (sim.Preempter), so the fairness engine and the chained SLO judgment
// price the restart as part of one logical job.
//
// Three guards keep the pass sane and terminating:
//
//   - victims must sort strictly AFTER the beneficiary under the queue
//     order (no preempting work the order ranks at least as high — the
//     anti-thrash rule: a job can never be preempted for a beneficiary
//     that would lose to it in the queue);
//   - the victim set is computed up front and preempted only when it frees
//     enough nodes in total — no partial preemption that kills jobs without
//     starting anything;
//   - each round preempts at least one job and the policy queue only
//     shrinks within a pass (remainders re-enter via the event list, not
//     the queue), so rounds are bounded by the queue length at entry.

// victim pairs a preemption candidate with its start time (victim-rule
// sort key).
type victim struct {
	job   *job.Job
	start int64
}

// preemptPass runs preemption rounds until the trigger no longer fires.
// It is a no-op for non-preemptive specs.
func (c *Composite) preemptPass(env sim.Env) {
	if c.spec.PreemptTrigger == "" {
		return
	}
	p, ok := env.(sim.Preempter)
	if !ok {
		// Reset checked this; an env change mid-run is a harness bug.
		panic(fmt.Sprintf("sched: policy %s: environment lost preemption capability", c.Name()))
	}
	// Each successful round starts at least the freed-for beneficiary and
	// never grows the queue, so the queue length at entry bounds the rounds.
	bound := len(c.engine.queued())
	for i := 0; i < bound; i++ {
		if !c.preemptOnce(env, p) {
			return
		}
		c.engine.schedule(env)
	}
}

// preemptOnce selects a beneficiary per the trigger, assembles a sufficient
// victim set per the victim rule, and checkpoints it. It reports whether a
// preemption happened (the caller then reruns the engine pass).
func (c *Composite) preemptOnce(env sim.Env, p sim.Preempter) bool {
	ben := c.beneficiary(env)
	if ben == nil || ben.Nodes <= env.FreeNodes() {
		// Nothing blocked on nodes. (A job blocked only by a reservation
		// constraint while nodes are free is not a preemption case: freeing
		// more nodes would not unblock it.)
		return false
	}
	need := ben.Nodes - env.FreeNodes()
	cands := c.victimBuf[:0]
	for _, r := range env.Running() {
		// Only strictly-lower-priority work is preemptable for ben, and
		// only jobs the simulator can actually checkpoint (>= 1s realized
		// and >= 1s remaining service).
		if !c.order.Less(env, ben, r.Job) || !p.CanPreempt(r.Job) {
			continue
		}
		cands = append(cands, victim{job: r.Job, start: r.Start})
	}
	c.victimBuf = cands
	total := 0
	for _, v := range cands {
		total += v.job.Nodes
	}
	if total < need {
		return false // insufficient even preempting every candidate
	}
	switch c.spec.PreemptVictim {
	case VictimNewest:
		// Most recently started first: least sunk service is thrown away.
		sort.SliceStable(cands, func(i, k int) bool {
			if cands[i].start != cands[k].start {
				return cands[i].start > cands[k].start
			}
			return cands[i].job.ID > cands[k].job.ID
		})
	default: // VictimLowPri
		// Worst under the queue order first: the running set's lowest
		// priority work is checkpointed before anything better.
		sort.SliceStable(cands, func(i, k int) bool {
			return c.order.Less(env, cands[k].job, cands[i].job)
		})
	}
	freed := 0
	for _, v := range cands {
		if err := p.Preempt(v.job); err != nil {
			// CanPreempt vetted every candidate within this same event.
			panic(fmt.Sprintf("sched: policy %s: preempt %d: %v", c.Name(), v.job.ID, err))
		}
		freed += v.job.Nodes
		if freed >= need {
			return true
		}
	}
	return true
}

// beneficiary returns the queued job the trigger wants to start, or nil
// when the trigger does not fire.
func (c *Composite) beneficiary(env sim.Env) *job.Job {
	q := c.engine.queued()
	var ben *job.Job
	switch c.spec.PreemptTrigger {
	case PreemptReserve:
		// The blocked head: the highest-priority queued job (the one the
		// engine's reservation is protecting).
		for _, cand := range q {
			if ben == nil || c.order.Less(env, cand, ben) {
				ben = cand
			}
		}
	case PreemptDeadline:
		// The highest-priority queued job already past its SLO deadline.
		// Without a deadline source the trigger never fires.
		now := env.Now()
		for _, cand := range q {
			d, ok := c.slo.deadline(cand)
			if !ok || now < d {
				continue
			}
			if ben == nil || c.order.Less(env, cand, ben) {
				ben = cand
			}
		}
	}
	return ben
}
