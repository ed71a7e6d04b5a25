package sched

import (
	"fmt"
	"math"

	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

// aggressiveEngine is the aggressive backfill family — the disciplines
// whose reservations (if any) are rebuilt from the running jobs at every
// scheduling event. They are one pass, backfill, differing only in how many
// main-queue heads hold a reservation:
//
//   - noguarantee reserves 0: any job that fits starts, in queue order
//     (CPlant §2.1);
//   - easy reserves 1, the blocked head (Lifka's EASY, Figure 2 semantics);
//   - depth reserves the first k (the spectrum between aggressive and
//     conservative backfilling).
//
// The optional starvation component composes with noguarantee and easy: a
// job queued longer than the threshold moves to an FCFS starvation queue. While
// starved jobs exist the same pass runs over the starvation queue instead,
// reserving its first reserve-depth heads, with the main queue (in queue
// order) as the tail backfilled after the rest of the starvation queue.
type aggressiveEngine struct {
	comp   *Composite
	prio   queueSorter[*job.Job]
	depth  int // reserved main-queue heads: 0 noguarantee, 1 easy, k depth
	starve *starvation

	main    []*job.Job
	starved []*job.Job
	// qBuf is the reused queued() buffer (callers must not retain it).
	qBuf []*job.Job
}

func (e *aggressiveEngine) reset() { e.main, e.starved = nil, nil }

func (e *aggressiveEngine) arrive(env sim.Env, j *job.Job) {
	e.main = append(e.main, j)
	e.schedule(env)
}

func (e *aggressiveEngine) complete(env sim.Env, _ *job.Job) { e.schedule(env) }

// nextWake is the next starvation-promotion instant.
func (e *aggressiveEngine) nextWake(now int64) (int64, bool) {
	if e.starve == nil {
		return 0, false
	}
	return e.starve.nextPromotion(now, e.main)
}

// queued returns the starvation queue first, then the main queue, in a
// reused buffer (sim.Policy.Queued callers must not retain the slice).
func (e *aggressiveEngine) queued() []*job.Job {
	if e.starve == nil {
		return e.main
	}
	e.qBuf = append(append(e.qBuf[:0], e.starved...), e.main...)
	return e.qBuf
}

func (e *aggressiveEngine) schedule(env sim.Env) {
	if e.starve != nil {
		e.main, e.starved = e.starve.promote(env, e.main, e.starved)
		// The starved heads start before the main queue is ordered: a start
		// can change what the order reads (edf's breach risk).
		startHeads(env, &e.starved)
	}
	e.prio.sort(env, e.main, nil)
	if len(e.starved) > 0 {
		e.starved, e.main = e.backfill(env, e.starved, e.starve.depth, e.main)
		return
	}
	startHeads(env, &e.main)
	e.main, _ = e.backfill(env, e.main, e.depth, nil)
}

// startHeads starts the heads of *q while they fit the free nodes. It
// shortens *q before each start, because observers may read the queue
// (sim.Policy.Queued) from inside env.Start.
func startHeads(env sim.Env, q *[]*job.Job) {
	for len(*q) > 0 && (*q)[0].Nodes <= env.FreeNodes() {
		var head *job.Job
		*q, head = popHead(*q)
		if err := env.Start(head); err != nil {
			panic(err)
		}
	}
}

// backfill reserves q's first depth jobs and starts every other job of q,
// then of tail, in order, that delays none of those reservations. It
// returns the jobs of q and of tail left queued.
//
// Up to one reservation needs no mutable profile. The shared availability
// profile only gains capacity over time, so the head's reservation time and
// the shadow nodes left beside it decide every candidate (canBackfill); no
// reservation is the same test with the reservation at the end of time.
// Deeper reservations are placed on the composite's scratch profile, which
// each candidate must fit from now on (fitsNow).
// TestShadowRuleMatchesProfileRule pins that the two tests agree at depth 1.
func (e *aggressiveEngine) backfill(env sim.Env, q []*job.Job, depth int, tail []*job.Job) ([]*job.Job, []*job.Job) {
	depth = min(depth, len(q))
	now := env.Now()
	resAt, shadow := int64(math.MaxInt64), 0
	var prof *profile.Profile
	switch {
	case depth == 1:
		resAt, shadow = reservation(env, q[0].Nodes)
	case depth > 1:
		prof = e.comp.scratchFrom(env)
		for _, r := range q[:depth] {
			if _, err := reserve(prof, now, r); err != nil {
				panic(err)
			}
		}
	}
	admit := func(c *job.Job) bool {
		if prof == nil {
			if !canBackfill(env, c, resAt, shadow) {
				return false
			}
			if now+c.Estimate > resAt {
				shadow -= c.Nodes
			}
		} else {
			if c.Nodes > env.FreeNodes() || !fitsNow(prof, now, c) {
				return false
			}
			if err := prof.Occupy(now, now+c.Estimate, c.Nodes); err != nil {
				panic(fmt.Sprintf("sched: backfill: %v", err))
			}
		}
		if err := env.Start(c); err != nil {
			panic(err)
		}
		return true
	}
	rest := startAdmitted(q[depth:], admit)
	return q[:depth+len(rest)], startAdmitted(tail, admit)
}

// startAdmitted offers each job of q, in order, to admit, which starts the
// jobs it accepts, and returns the rest compacted in place.
func startAdmitted(q []*job.Job, admit func(*job.Job) bool) []*job.Job {
	kept := q[:0]
	for _, c := range q {
		if !admit(c) {
			kept = append(kept, c)
		}
	}
	clear(q[len(kept):]) // drop started jobs' pointers from the vacated tail
	return kept
}

// reserve occupies r's earliest fit on prof from now on and returns its
// start.
func reserve(prof *profile.Profile, now int64, r *job.Job) (int64, error) {
	s, ok := prof.EarliestFit(now, r.Estimate, r.Nodes)
	if !ok {
		return 0, fmt.Errorf("sched: reservation impossible for %v", r)
	}
	return s, prof.Occupy(s, s+r.Estimate, r.Nodes)
}
