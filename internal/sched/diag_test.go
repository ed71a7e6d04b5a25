package sched

import (
	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// Diagnostic accessors the tests read policy state through. They live here,
// not in the production files, because nothing but the tests calls them.

// StarvedLen reports the current starvation-queue length (0 for policies
// without a starvation component).
func (c *Composite) StarvedLen() int {
	if a, ok := c.engine.(*aggressiveEngine); ok {
		return len(a.starved)
	}
	return 0
}

// Reservations exposes the current reservation table (job id -> start).
// Conservative engines report their standing reservations; depth engines
// compute the reservations a fresh scheduling pass would place; other
// engines hold none.
func (c *Composite) Reservations(env sim.Env) map[job.ID]int64 {
	switch e := c.engine.(type) {
	case *conservativeEngine:
		return e.reservations()
	case *aggressiveEngine:
		if c.spec.Backfill == BackfillDepth {
			return e.depthReservations(env)
		}
	}
	return nil
}

// reservations exposes the current reservation table (job id -> start).
func (e *conservativeEngine) reservations() map[job.ID]int64 {
	out := make(map[job.ID]int64, len(e.queue))
	for _, q := range e.queue {
		if q.hasRes {
			out[q.job.ID] = q.res
		}
	}
	return out
}

// depthReservations computes the reservation starts a fresh bf=depth
// scheduling pass would place. It works on its own profile copy, NOT the
// composite's scratch: observers may call it from inside a scheduling pass
// (env.Start fires JobStarted synchronously while the engine still holds
// reservations in the scratch profile), and clobbering the scratch mid-pass
// would corrupt the pass.
func (e *aggressiveEngine) depthReservations(env sim.Env) map[job.ID]int64 {
	prof := env.Availability().Clone()
	q := append([]*job.Job(nil), e.main...)
	e.prio.sort(env, q, nil)
	q = q[:min(e.depth, len(q))]
	out := make(map[job.ID]int64, len(q))
	for _, r := range q {
		if s, err := reserve(prof, env.Now(), r); err == nil {
			out[r.ID] = s
		}
	}
	return out
}

// LeafPaths returns the leaf queue paths in routing-index order.
func (mq *MultiQueue) LeafPaths() []string { return mq.leafPaths }
