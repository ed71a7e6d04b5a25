package sched

import (
	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// listEngine is the bf=none discipline: pure list scheduling. At each
// scheduling event the queue is sorted by the order and heads are started
// while they fit; the first blocked head blocks the rest (no backfilling).
// Over an FCFS queue this is the strict scheduler of Figure 1 ("fair" but
// poor utilization); over the fairshare queue it is the reference
// discipline of the hybrid FST metric (paper §4.1). Under a static order
// the queue stays sorted between passes: arrivals go in by binary insertion
// and starts only pop heads.
type listEngine struct {
	comp  *Composite
	prio  queueSorter[*job.Job]
	queue []*job.Job
}

// reset keeps the sorter's sorted state: an empty queue is sorted under
// any keys, so a stale epoch cannot misplace the next run's arrivals.
func (e *listEngine) reset() { e.queue = nil }

func (e *listEngine) arrive(env sim.Env, j *job.Job) {
	e.queue = e.prio.insert(env, e.queue, j)
	e.schedule(env)
}

func (e *listEngine) complete(env sim.Env, _ *job.Job) { e.schedule(env) }

func (e *listEngine) nextWake(int64) (int64, bool) { return 0, false }

func (e *listEngine) queued() []*job.Job { return e.queue }

func (e *listEngine) ranked() ([]*job.Job, bool) { return e.queue, e.prio.current() }

func (e *listEngine) schedule(env sim.Env) {
	e.prio.sort(env, e.queue, nil)
	e.comp.startHeads(env, &e.queue)
}
