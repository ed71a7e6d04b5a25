// Package sched implements the scheduling policies the paper studies as a
// composable design space instead of a fixed menu. A policy is a point in
//
//	Order × Backfill × Starvation
//
// where Order ranks the main queue (fairshare, fcfs, sjf, lxf, widest,
// narrowest), Backfill is the discipline deciding which queued jobs may
// start (none, noguarantee, easy, depth, conservative, consdyn) and
// Starvation optionally promotes long-waiting jobs to a reserved FCFS
// queue (wait threshold, heavy-user classifier, reservation depth). The
// generic Composite policy assembles the components; a Spec names a point
// in the space, parsed from the `order=…+bf=…+starve=…` grammar or looked
// up in the named registry (see Builtins).
//
// The paper's nine configurations are registry entries: the baseline
// CPlant scheduler (§2.1) is order=fairshare+bf=noguarantee+starve=24h.all,
// the §5.2 "minor change" variants adjust the starvation axis, and the
// §5.3/§5.4 conservative policies swap the backfill axis. The reference
// baselines (strict FCFS of Figure 1, EASY of Figure 2, the no-backfill
// fairshare list scheduler defining the hybrid FST) and the size-based
// orderings of the related fairness literature (SJF, LXF) are further
// points in the same space.
//
// Maximum-runtime limits (§5.1) are a workload transformation implemented
// in the simulator; Spec.MaxRuntime records them so a spec fully names a
// configuration, and they compose with every policy here.
//
// The aggressive disciplines are one backfill pass that differs only in
// how many queue heads hold a reservation: noguarantee 0, easy 1, depth k.
// The starvation queue runs the same pass over its own heads, with the
// main queue as the tail backfilled after it.
//
// All components of one scheduling pass share the environment's per-event
// availability profile (sim.Env.Availability) instead of re-deriving the
// running jobs' release times independently; see DESIGN.md §9.
package sched

import (
	"slices"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

// remove deletes the job with the given id from a queue slice, preserving
// order, and reports whether it was present. The vacated tail slot is
// cleared so the popped job pointer does not linger in the backing array.
func remove(q []*job.Job, id job.ID) ([]*job.Job, bool) {
	for i, j := range q {
		if j.ID == id {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			return q[:len(q)-1], true
		}
	}
	return q, false
}

// popHead removes and returns the queue's head, clearing the vacated slot
// so the backing array does not pin the started job.
func popHead(q []*job.Job) ([]*job.Job, *job.Job) {
	head := q[0]
	copy(q, q[1:])
	q[len(q)-1] = nil
	return q[:len(q)-1], head
}

// sortFCFS orders jobs by submission time then id (the starvation queue's
// discipline): the fairshare.Compare tie-break over zero keys.
func sortFCFS(q []*job.Job) {
	slices.SortFunc(q, func(a, b *job.Job) int { return fairshare.Compare(0, a, 0, b) })
}

// reservation computes the earliest time a job needing `nodes` nodes could
// start given only the running jobs' estimated completions (no queued-job
// reservations) — the one reservation of a depth-1 backfill pass (EASY's
// blocked head, the starvation-queue head). It reads the environment's shared availability profile rather
// than re-deriving release times from the running set. It returns the
// reservation time and the "shadow" capacity: the nodes left over at that
// time after the job is placed, which bounds what backfilled jobs running
// past the reservation may consume.
func reservation(env sim.Env, nodes int) (at int64, shadow int) {
	prof := env.Availability()
	// The availability profile only ever gains capacity over time (running
	// jobs release nodes; nothing is reserved in it), so the earliest
	// single-instant fit is the earliest fit, period.
	s, ok := prof.EarliestFit(env.Now(), 1, nodes)
	if !ok {
		// Unreachable for valid jobs: all running jobs complete eventually
		// and nodes <= system size.
		return env.Now(), env.SystemSize() - nodes
	}
	return s, prof.FreeAt(s) - nodes
}

// canBackfill reports whether candidate c, which fits the free nodes, may
// start now without delaying a reservation at resAt with the given shadow
// capacity: either c completes (by its estimate) before the reservation, or
// it fits into the shadow nodes.
func canBackfill(now int64, c *job.Job, resAt int64, shadow int) bool {
	return now+c.Estimate <= resAt || c.Nodes <= shadow
}

// fitsNow reports whether a job starting immediately fits the profile for
// its whole estimated duration.
func fitsNow(prof *profile.Profile, now int64, c *job.Job) bool {
	s, ok := prof.EarliestFit(now, c.Estimate, c.Nodes)
	return ok && s == now
}
