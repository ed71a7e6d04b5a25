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
//
// Under a static order the main queue stays sorted between passes:
// arrivals go in by binary insertion, and promotion, head starts and
// backfill starts only remove jobs in place.
type aggressiveEngine struct {
	comp   *Composite
	prio   queueSorter[*job.Job]
	depth  int // reserved main-queue heads: 0 noguarantee, 1 easy, k depth
	starve *starvation

	main    []*job.Job
	starved []*job.Job
	// minWidth is a lower bound on the widths of main, its reserved heads
	// included: arrive lowers it, removals keep it, and every scan of main
	// sets it exactly (scanMain).
	minWidth int
	// qBuf is the reused queued() buffer (callers must not retain it).
	qBuf []*job.Job
}

// reset keeps the sorter's sorted state: an empty queue is sorted under
// any keys, so a stale epoch cannot misplace the next run's arrivals.
func (e *aggressiveEngine) reset() { e.main, e.starved, e.minWidth = nil, nil, math.MaxInt }

func (e *aggressiveEngine) arrive(env sim.Env, j *job.Job) {
	e.main = e.prio.insert(env, e.main, j)
	e.minWidth = min(e.minWidth, j.Nodes)
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

func (e *aggressiveEngine) ranked() ([]*job.Job, bool) {
	return e.main, len(e.starved) == 0 && e.prio.current()
}

func (e *aggressiveEngine) schedule(env sim.Env) {
	if e.starve != nil {
		e.main, e.starved = e.starve.promote(env, e.main, e.starved)
		// The starved heads start before the main queue is ordered: a start
		// can change what the order reads (edf's breach risk).
		e.comp.startHeads(env, &e.starved)
	}
	e.prio.sort(env, e.main, nil)
	if len(e.starved) == 0 {
		e.comp.startHeads(env, &e.main)
	}
	e.backfill(env)
}

// backfill reserves the first depth jobs of the starvation queue, if it
// holds any, else of the main queue, and starts every other job of that
// queue, then of the main queue behind a starvation queue, in order, that
// delays none of those reservations.
//
// A pass costs in proportion to the candidates that fit the free nodes:
// startAdmitted skips the others on the free count alone, scanMain skips
// the whole main queue when fewer nodes are free than its width bound, and
// the reservations are placed only when the first candidate fits. No job
// has started in the pass before then, so they are the reservations an
// up-front placement would make, and a pass where nothing fits never
// builds the availability profile.
//
// Up to one reservation needs no mutable profile. The shared availability
// profile only gains capacity over time, so the head's reservation time and
// the shadow nodes left beside it decide every candidate (canBackfill); no
// reservation is the same test with the reservation at the end of time.
// Deeper reservations are placed on the composite's scratch profile, which
// each candidate must fit from now on (fitsNow).
// TestShadowRuleMatchesProfileRule pins that the two tests agree at depth 1.
func (e *aggressiveEngine) backfill(env sim.Env) {
	q, depth := e.main, e.depth
	if len(e.starved) > 0 {
		q, depth = e.starved, e.starve.depth
	}
	depth = min(depth, len(q))
	now, free := env.Now(), env.FreeNodes()
	resAt, shadow := int64(math.MaxInt64), 0
	var prof *profile.Profile
	placed := depth == 0
	admit := func(c *job.Job) bool {
		if !placed {
			placed = true
			if depth == 1 {
				resAt, shadow = reservation(env, q[0].Nodes)
			} else {
				prof = e.comp.scratchFrom(env)
				for _, r := range q[:depth] {
					if _, err := reserve(prof, now, r); err != nil {
						panic(err)
					}
				}
			}
		}
		if prof == nil {
			if !canBackfill(now, c, resAt, shadow) {
				return false
			}
			if now+c.Estimate > resAt {
				shadow -= c.Nodes
			}
		} else {
			if !fitsNow(prof, now, c) {
				return false
			}
			if err := prof.Occupy(now, now+c.Estimate, c.Nodes); err != nil {
				panic(fmt.Sprintf("sched: backfill: %v", err))
			}
		}
		e.comp.start(env, c)
		free = env.FreeNodes()
		return true
	}
	if len(e.starved) == 0 {
		e.main = e.scanMain(depth, &free, admit)
		return
	}
	rest, _ := startAdmitted(q[depth:], &free, admit)
	e.starved = q[:depth+len(rest)]
	e.main = e.scanMain(0, &free, admit)
}

// scanMain offers the main queue behind its first heads jobs to admit and
// returns the main queue left. With fewer nodes free than minWidth no job
// of it fits, so the scan is skipped: a scan would offer nothing. A scan
// reads every candidate's width, so it sets minWidth exactly, the heads'
// widths included — a later order can make a reserved head a candidate.
func (e *aggressiveEngine) scanMain(heads int, free *int, admit func(*job.Job) bool) []*job.Job {
	if *free < e.minWidth {
		return e.main
	}
	rest, w := startAdmitted(e.main[heads:], free, admit)
	for _, r := range e.main[:heads] {
		w = min(w, r.Nodes)
	}
	e.minWidth = w
	return e.main[:heads+len(rest)]
}

// startAdmitted offers each job of q that fits the *free nodes, in order,
// to admit, which starts the jobs it accepts and updates *free, and returns
// the rest compacted in place with their least width (math.MaxInt when
// none is left).
func startAdmitted(q []*job.Job, free *int, admit func(*job.Job) bool) (kept []*job.Job, minWidth int) {
	kept, minWidth = q[:0], math.MaxInt
	for _, c := range q {
		if c.Nodes > *free || !admit(c) {
			kept = append(kept, c)
			minWidth = min(minWidth, c.Nodes)
		}
	}
	clear(q[len(kept):]) // drop started jobs' pointers from the vacated tail
	return kept, minWidth
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
