package sched

import (
	"cmp"
	"fmt"
	"slices"

	"fairsched/internal/fairshare"
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

// victim pairs a preemption candidate with its start time (newest rule)
// and its priority key (lowpri rule). A round reads each candidate's key
// once, at the round's clock; no job starts before its ranking is done.
type victim struct {
	job   *job.Job
	start int64
	key   float64
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
	fs, now := env.Fairshare(), env.Now()
	ben, kben := c.beneficiary(env, fs)
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
		k := c.order.key(fs, now, r.Job)
		if fairshare.Compare(kben, ben, k, r.Job) >= 0 || !p.CanPreempt(r.Job) {
			continue
		}
		cands = append(cands, victim{job: r.Job, start: r.Start, key: k})
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
		slices.SortStableFunc(cands, func(a, b victim) int {
			if d := cmp.Compare(b.start, a.start); d != 0 {
				return d
			}
			return cmp.Compare(b.job.ID, a.job.ID)
		})
	default: // VictimLowPri
		// Worst under the queue order first: the running set's lowest
		// priority work is checkpointed before anything better.
		slices.SortStableFunc(cands, func(a, b victim) int {
			return fairshare.Compare(b.key, b.job, a.key, a.job)
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

// beneficiary returns the queued job the trigger wants to start and its
// priority key, or nil when the trigger does not fire: the highest-priority
// queued job the trigger accepts. A queue the engine keeps ranked yields
// the first accepted job without reading a key before it.
func (c *Composite) beneficiary(env sim.Env, fs *fairshare.Tracker) (*job.Job, float64) {
	now := env.Now()
	accept := func(j *job.Job) bool {
		if c.spec.PreemptTrigger == PreemptDeadline {
			// Past its SLO deadline. Without a deadline source the trigger
			// never fires.
			d, ok := c.slo.deadline(j)
			return ok && now >= d
		}
		// PreemptReserve: the blocked head, the highest-priority queued
		// job (the one the engine's reservation is protecting).
		return true
	}
	if q, ok := c.engine.ranked(); ok {
		for _, cand := range q {
			if accept(cand) {
				return cand, c.order.key(fs, now, cand)
			}
		}
		return nil, 0
	}
	var ben *job.Job
	var kben float64
	for _, cand := range c.engine.queued() {
		if !accept(cand) {
			continue
		}
		if k := c.order.key(fs, now, cand); ben == nil || fairshare.Compare(k, cand, kben, ben) < 0 {
			ben, kben = cand, k
		}
	}
	return ben, kben
}

// deadlineWakes keeps the SLO deadlines of the jobs queued under
// preempt=deadline in a min-heap, so NextWake finds the earliest future
// one without re-deriving every queued job's deadline per event. A job
// enters at arrival with its fixed deadline; an entry whose deadline has
// passed (the clock never runs back) or whose job has started since is
// dropped when it reaches the top.
type deadlineWakes struct {
	heap   []deadlineWake
	queued map[*job.Job]struct{} // the jobs with an entry that have not started
}

type deadlineWake struct {
	at  int64
	job *job.Job
}

func (w *deadlineWakes) reset() {
	clear(w.heap)
	w.heap = w.heap[:0]
	clear(w.queued)
}

func (w *deadlineWakes) push(at int64, j *job.Job) {
	if w.queued == nil {
		w.queued = make(map[*job.Job]struct{})
	}
	w.queued[j] = struct{}{}
	h := append(w.heap, deadlineWake{at: at, job: j})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	w.heap = h
}

func (w *deadlineWakes) started(j *job.Job) { delete(w.queued, j) }

// next returns the earliest deadline after now among the queued jobs.
func (w *deadlineWakes) next(now int64) (int64, bool) {
	for len(w.heap) > 0 {
		top := w.heap[0]
		if _, ok := w.queued[top.job]; ok && top.at > now {
			return top.at, true
		}
		w.pop()
	}
	return 0, false
}

// pop drops the top entry and its job.
func (w *deadlineWakes) pop() {
	h := w.heap
	n := len(h) - 1
	delete(w.queued, h[0].job)
	h[0], h[n] = h[n], deadlineWake{}
	h = h[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && h[l].at < h[m].at {
			m = l
		}
		if r := 2*i + 2; r < n && h[r].at < h[m].at {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	w.heap = h
}
