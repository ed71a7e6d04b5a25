package sched

import (
	"cmp"
	"fmt"
	"sort"

	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

// conservativeEngine implements conservative backfilling generically over
// the queue order: bf=conservative (paper §5.3 with order=fairshare) and,
// with dynamic set, bf=consdyn (§5.4).
//
// Static (dynamic=false): every job holds a reservation from arrival on. At
// each scheduling event the schedule is re-validated preserving the current
// reservation order (a reservation never moves later except when a running
// job overruns its estimate), and then every job, in queue priority order,
// attempts to improve its reservation into any hole opened by early
// completions ("jobs do not relinquish their current reservations unless
// better reservations are found"). The first reservation therefore upper
// bounds a job's wait and no starvation queue is needed.
//
// Dynamic (dynamic=true): at each scheduling event all reservations are
// discarded and the schedule is rebuilt from scratch in queue priority
// order. Reservations are no longer wait-time upper bounds, removing the
// "FCFS feel", but "fair" jobs still cannot starve under usage-decaying
// orders because low-usage users rise in the rebuild order.
//
// Both variants run on a revalidation cache: the occupied profile (running
// jobs' promised release times plus every standing reservation) persists
// across events instead of being rebuilt by re-occupying every queued job
// per event. Each event classifies what actually changed — nothing, a new
// arrival, an early-completion hole, or an estimate-overrun backoff — and
// does only the matching work; the from-scratch rebuild survives as the
// fallback for the overrun case (and as the noCache reference the
// differential tests compare against). The cache is an optimization with a
// proof obligation: reservations must be byte-identical to the from-scratch
// schedule at every event (DESIGN.md §10).
type conservativeEngine struct {
	prio    queueSorter[*reservedJob]
	dynamic bool

	queue []*reservedJob

	// Revalidation cache state.
	//
	// prof is the standing occupied profile; cacheOK marks it valid (false
	// initially, after reset, and when noCache forces the reference path).
	prof    profile.Profile
	cacheOK bool
	// holes records unconsumed capacity growth (early completions) — the
	// static engine must run its improvement passes, the dynamic engine
	// must replay its placement against the grown profile. Also set when an
	// improvement loop hit its pass bound without reaching the fixpoint, so
	// the next event resumes it exactly where the from-scratch schedule
	// would.
	holes bool
	// holeEnd (dynamic only) is the upper edge of the released capacity:
	// the max promised release time over the holes opened since the last
	// placement. Every hole lies within [now, holeEnd), which bounds the
	// partial rebuild's probe window.
	holeEnd int64
	// snaps tracks the running set the profile was built against, sorted by
	// promised release time (ec). snaps[0].ec <= now detects estimate-
	// overrun backoff: a running job's promised release changes exactly when
	// the clock crosses it, which invalidates reservations and forces the
	// from-scratch fallback.
	snaps []runSnap
	// lastOrder (dynamic only) is the queue in the priority order of the
	// last placement; the longest unchanged reserved prefix keeps its
	// reservations, everything after it is re-placed.
	lastOrder []job.ID
	// pre (dynamic only) is insertInPlace's scratch: Availability plus the
	// reservations ahead of the arrival.
	pre profile.Profile
	// insertHits and insertMisses count the single arrivals insertInPlace
	// placed in place and those it handed back to the suffix replay (read
	// by the differential tests).
	insertHits, insertMisses int

	// Reused scratch buffers.
	freshBuf []*reservedJob // unreserved arrivals, in placement order
	dueBuf   []*reservedJob // due-reservation starts
	qBuf     []*job.Job     // queued() result
	// spare recycles started jobs' queue entries, so an arrival allocates
	// nothing once the engine is warm.
	spare []*reservedJob

	// noCache forces the from-scratch path on every event: the reference
	// behaviour the differential tests compare the cache against.
	noCache bool
}

// runSnap is one running job's contribution to the cached profile: nodes
// held until the promised release time ec (estimate-based, overruns backed
// off, exactly sim.RunningJob.EstimatedCompletion at snapshot time).
type runSnap struct {
	id    job.ID
	nodes int
	ec    int64
}

// reservedJob is a queued job with its current reservation.
type reservedJob struct {
	job *job.Job
	// res is the reserved start time; hasRes is false for a job that has
	// not been placed yet (a fresh arrival mid-event).
	res    int64
	hasRes bool
}

// improvementPasses bounds the static-conservative compression loop; in
// practice two or three passes reach the fixpoint. (If a pass budget is
// ever exhausted mid-compression the cache records it in holes, so the next
// event resumes the loop like the from-scratch schedule would.)
const improvementPasses = 8

func (e *conservativeEngine) reset() {
	e.queue = nil
	e.cacheOK = false
	e.holes = false
	e.holeEnd = 0
	e.snaps = e.snaps[:0]
	e.lastOrder = e.lastOrder[:0]
}

func (e *conservativeEngine) arrive(env sim.Env, j *job.Job) {
	var q *reservedJob
	if n := len(e.spare); n > 0 {
		q, e.spare = e.spare[n-1], e.spare[:n-1]
	} else {
		q = new(reservedJob)
	}
	*q = reservedJob{job: j}
	e.queue = append(e.queue, q)
	e.schedule(env)
}

// complete handles a job completion: release the completed job's promised
// occupancy tail from the cached profile (the early-completion hole) before
// the scheduling pass reads it. Same-instant completion batches are
// reconciled in schedule (the simulator releases the whole batch before the
// first policy callback).
func (e *conservativeEngine) complete(env sim.Env, j *job.Job) {
	e.dropSnap(env.Now(), j.ID)
	e.schedule(env)
}

// dropSnap removes id's snapshot and releases its remaining promised
// occupancy from the cached profile.
func (e *conservativeEngine) dropSnap(now int64, id job.ID) {
	for i, s := range e.snaps {
		if s.id != id {
			continue
		}
		if e.cacheOK && s.ec > now {
			if err := e.prof.Release(now, s.ec, s.nodes); err != nil {
				panic(fmt.Sprintf("sched: conservative cache release: %v", err))
			}
			e.holes = true
			if s.ec > e.holeEnd {
				e.holeEnd = s.ec
			}
		}
		copy(e.snaps[i:], e.snaps[i+1:])
		e.snaps = e.snaps[:len(e.snaps)-1]
		return
	}
}

// nextWake implements the engine hook. Reservations are start instants the
// simulator would otherwise not visit (no arrival or completion need fall
// on them), so the engine asks to be woken at its earliest reservation.
func (e *conservativeEngine) nextWake(now int64) (int64, bool) {
	var t int64
	have := false
	for _, q := range e.queue {
		if q.hasRes && q.res > now && (!have || q.res < t) {
			t, have = q.res, true
		}
	}
	return t, have
}

// queued returns the queue in a reused buffer (sim.Policy.Queued callers
// must not retain the slice).
func (e *conservativeEngine) queued() []*job.Job {
	e.qBuf = e.qBuf[:0]
	for _, q := range e.queue {
		e.qBuf = append(e.qBuf, q.job)
	}
	return e.qBuf
}

func (e *conservativeEngine) schedule(env sim.Env) {
	now := env.Now()

	// Classify the event against the cached profile.
	dirty := !e.cacheOK || e.noCache
	if !dirty {
		if len(e.snaps) != len(env.Running()) {
			// A same-instant completion batch: the simulator released every
			// member before the first policy callback, so tails of the
			// not-yet-delivered completions must come out of the profile
			// now — the from-scratch schedule would already see them gone.
			e.reconcileRemovals(env)
		}
		if len(e.snaps) > 0 && e.snaps[0].ec <= now {
			// A running job crossed its promised release time without
			// completing: its estimate backs off, shrinking future capacity
			// under standing reservations. Re-placement of just the
			// infeasible jobs would cascade (a moved reservation can
			// displace feasible ones), so this is the full-rebuild case.
			dirty = true
		}
	}

	if dirty {
		e.rebuild(env, true)
	} else {
		e.prof.TrimBefore(now)
		e.revalidate(env)
	}

	// Start every job whose reservation has come due. Capacity is
	// guaranteed by the profile; start in reservation order (queue-priority
	// tie-break). The common case — nothing due — costs one scan.
	due := e.dueBuf[:0]
	kept := e.queue[:0]
	for _, q := range e.queue {
		if q.res <= now {
			due = append(due, q)
			continue
		}
		kept = append(kept, q)
	}
	if len(due) > 0 {
		e.prio.sort(env, due, byReservation)
		for _, q := range due {
			if err := env.Start(q.job); err != nil {
				panic(fmt.Sprintf("sched: start reserved job: %v", err))
			}
			// The reservation rectangle [res, res+est) stays in the cached
			// profile: it is exactly the started job's promised running
			// occupancy [now, now+estimate).
			i := sort.Search(len(e.snaps), func(i int) bool { return e.snaps[i].ec >= now+q.job.Estimate })
			e.snaps = append(e.snaps, runSnap{})
			copy(e.snaps[i+1:], e.snaps[i:])
			e.snaps[i] = runSnap{id: q.job.ID, nodes: q.job.Nodes, ec: now + q.job.Estimate}
		}
		if e.dynamic {
			e.pruneLastOrder(due)
		}
		e.spare = append(e.spare, due...)
	}
	e.dueBuf = due
	clear(e.queue[len(kept):]) // drop started jobs' pointers from the tail
	e.queue = kept
}

// reconcileRemovals drops every snapshot whose job has left the running set
// (releasing its promised tail). Only reached on same-instant completion
// batches, so the quadratic membership scan stays off the hot path.
func (e *conservativeEngine) reconcileRemovals(env sim.Env) {
	running := env.Running()
	now := env.Now()
	for i := 0; i < len(e.snaps); {
		alive := false
		for _, r := range running {
			if r.Job.ID == e.snaps[i].id {
				alive = true
				break
			}
		}
		if alive {
			i++
			continue
		}
		e.dropSnap(now, e.snaps[i].id)
	}
}

// pruneLastOrder removes started jobs from the dynamic engine's remembered
// priority order, preserving the relative order of the rest.
func (e *conservativeEngine) pruneLastOrder(started []*reservedJob) {
	kept := e.lastOrder[:0]
outer:
	for _, id := range e.lastOrder {
		for _, q := range started {
			if q.job.ID == id {
				continue outer
			}
		}
		kept = append(kept, id)
	}
	e.lastOrder = kept
}

// rebuild is the from-scratch schedule — the pre-cache behaviour and the
// fallback for estimate-overrun backoff: copy the environment's shared
// availability profile, re-place every queued job (static: preserving
// reservation order; dynamic: in queue priority order), then compress
// (static only). With refreshSnaps it re-snapshots the running set the
// profile now encodes; callers whose snapshot is already reconciled (the
// dynamic holes path) skip that.
func (e *conservativeEngine) rebuild(env sim.Env, refreshSnaps bool) {
	now := env.Now()
	e.prof.CopyFrom(env.Availability())

	if e.dynamic {
		// Discard everything; rebuild in queue priority order.
		e.prio.sort(env, e.queue, nil)
	} else {
		// Re-validate preserving reservation order (unreserved arrivals
		// last), so existing reservations only move later under estimate
		// overruns; then improve in queue priority order below.
		e.prio.sort(env, e.queue, byReservation)
	}
	for _, q := range e.queue {
		after := now
		if !e.dynamic && q.hasRes && q.res > now {
			// Static re-validation does not improve reservations (that is
			// the priority pass's privilege below); it only pushes them
			// later when a running job's overrun makes the slot infeasible.
			after = q.res
		}
		e.place(env, q, after)
	}

	e.holes = false
	e.holeEnd = 0
	if !e.dynamic {
		e.improve(env)
	} else {
		e.lastOrder = e.lastOrder[:0]
		for _, q := range e.queue {
			e.lastOrder = append(e.lastOrder, q.job.ID)
		}
	}

	if refreshSnaps {
		// Snapshot the running set encoded in the rebuilt profile, sorted
		// by promised release time (insertion into the reused buffer; the
		// running set is small and mostly start-ordered).
		e.snaps = e.snaps[:0]
		for _, r := range env.Running() {
			ec := r.EstimatedCompletion(now)
			i := sort.Search(len(e.snaps), func(i int) bool { return e.snaps[i].ec >= ec })
			e.snaps = append(e.snaps, runSnap{})
			copy(e.snaps[i+1:], e.snaps[i:])
			e.snaps[i] = runSnap{id: r.Job.ID, nodes: r.Job.Nodes, ec: ec}
		}
	}
	e.cacheOK = true
}

// revalidate is the cached-profile event path: the running set is unchanged
// (up to early-completion holes already released into the profile), so every
// standing reservation re-fits exactly where it is and only the actual
// changes are processed — fresh arrivals are placed into the standing
// profile, and capacity growth triggers the static improvement passes or
// the dynamic re-placement of the changed priority suffix.
func (e *conservativeEngine) revalidate(env sim.Env) {
	if e.dynamic {
		e.revalidateDynamic(env)
		return
	}
	// Place fresh arrivals (queue-priority order among themselves, matching
	// the from-scratch revalidation sort, which puts unreserved jobs last).
	fresh := e.freshBuf[:0]
	for _, q := range e.queue {
		if !q.hasRes {
			fresh = append(fresh, q)
		}
	}
	e.prio.sort(env, fresh, nil)
	for _, q := range fresh {
		e.place(env, q, env.Now())
	}
	e.freshBuf = fresh
	if e.holes {
		// Early completions grew capacity: reservations are all still
		// feasible in place, but the priority pass may now compress them
		// into the holes.
		e.holes = false
		e.holeEnd = 0
		e.improve(env)
	}
}

// revalidateDynamic re-places the suffix of the priority order that changed
// since the last placement: the longest prefix with unchanged membership
// and order keeps its reservations (placing it again would replay the
// identical profile operations), everything after it is released and
// re-placed in the new order — unless the change is a single arrival that
// insertInPlace can slot in without moving anyone.
func (e *conservativeEngine) revalidateDynamic(env sim.Env) {
	if e.holes {
		// Capacity grew: reservations may move earlier, which is a replay of
		// the whole priority-order placement by definition — but the hole is
		// confined to [now, holeEnd), so the replay's prefix is provably
		// verbatim until the first job that can actually reach the window.
		e.partialRebuild(env)
		return
	}
	// Fast path: starts only remove entries, so e.queue is still in the last
	// placement's priority order. If the sort leaves it untouched under the
	// current (usage-dependent) order and every entry is placed, the
	// discipline's rebuild would replay identical placements: skip it.
	if !e.prio.sort(env, e.queue, nil) && allPlaced(e.queue) {
		return
	}
	k := 0
	for k < len(e.queue) && k < len(e.lastOrder) &&
		e.queue[k].hasRes && e.queue[k].job.ID == e.lastOrder[k] {
		k++
	}
	if !e.insertInPlace(env, k) {
		e.replaySuffix(env, k)
	}
	e.lastOrder = e.lastOrder[:0]
	for _, q := range e.queue {
		e.lastOrder = append(e.lastOrder, q.job.ID)
	}
}

// insertInPlace is the dynamic engine's arrival path. When the sorted queue
// is the last placement's order with exactly one fresh job J inserted at
// index k < n-1, it places J at its earliest fit s on the prefix-only
// profile (Availability plus queue[:k], as the replay would see it) and, if
// [s, s+J.Estimate) also fits in the standing profile, occupies it there and
// reports true: the replay of every later job would land on its old slot.
// J only removes capacity, so each later job's old slot stays feasible (the
// full profile with J added is non-negative), and no earlier slot opens
// (nothing before that job moved). Otherwise it reports false having
// touched only its scratch profile, and the caller replays the suffix.
func (e *conservativeEngine) insertInPlace(env sim.Env, k int) bool {
	n := len(e.queue)
	if k >= n-1 || len(e.lastOrder) != n-1 || e.queue[k].hasRes {
		return false
	}
	for i, q := range e.queue[k+1:] {
		if !q.hasRes || q.job.ID != e.lastOrder[k+i] {
			return false
		}
	}
	e.pre.CopyFrom(env.Availability())
	for _, q := range e.queue[:k] {
		if err := e.pre.Occupy(q.res, q.res+q.job.Estimate, q.job.Nodes); err != nil {
			panic(fmt.Sprintf("sched: insert prefix re-occupy: %v", err))
		}
	}
	j := e.queue[k]
	est := j.job.Estimate
	s, ok := e.pre.EarliestFit(env.Now(), est, j.job.Nodes)
	if !ok {
		panic(fmt.Sprintf("sched: no fit for %v on %d nodes", j.job, env.SystemSize()))
	}
	if _, fits := e.prof.EarliestFitBefore(s, s+1, est, j.job.Nodes); !fits {
		e.insertMisses++
		return false
	}
	if err := e.prof.Occupy(s, s+est, j.job.Nodes); err != nil {
		panic(fmt.Sprintf("sched: insert reserve: %v", err))
	}
	j.res, j.hasRes = s, true
	e.insertHits++
	return true
}

// replaySuffix releases the reservations of queue[k:] and re-places those
// jobs in queue order: the from-scratch replay from index k on.
func (e *conservativeEngine) replaySuffix(env sim.Env, k int) {
	now := env.Now()
	for _, q := range e.queue[k:] {
		if !q.hasRes {
			continue
		}
		if err := e.prof.Release(q.res, q.res+q.job.Estimate, q.job.Nodes); err != nil {
			panic(fmt.Sprintf("sched: conservative cache release reservation: %v", err))
		}
	}
	for _, q := range e.queue[k:] {
		e.place(env, q, now)
	}
}

// partialRebuild is the dynamic engine's early-completion-hole path: the
// from-scratch replay (rebuild) re-places every queued job in priority
// order, but the released capacity is confined to [now, holeEnd), so for
// the prefix of the priority order that is unchanged since the last
// placement the replay is a verbatim re-occupation — until the first job
// whose earliest fit can land inside the hole window.
//
// Why the probe is exact: the last placement left each prefix job at the
// earliest fit of its turn, and the post-hole profile differs from that
// steady state only on [now, holeEnd). A prefix job's replayed fit can
// therefore only move earlier, and any start s in [holeEnd, res) would have
// been a fit before the hole too — contradicting res being earliest — so
// an improvement exists iff one starts inside [now, min(res, holeEnd)),
// which is exactly what EarliestFitBefore probes (the fitted rectangle may
// still extend past holeEnd; only the start is bounded). Jobs at or past
// the first improvement, order changes, and fresh arrivals are re-placed
// with the full search, identical to the from-scratch replay from that
// point on. The snapshot is already reconciled (complete dropped the
// finished jobs, the clock crossed no promised release), so it carries
// over — matching rebuild(env, false) semantics.
func (e *conservativeEngine) partialRebuild(env sim.Env) {
	now := env.Now()
	e.prio.sort(env, e.queue, nil)
	stable := 0
	for stable < len(e.queue) && stable < len(e.lastOrder) &&
		e.queue[stable].hasRes && e.queue[stable].job.ID == e.lastOrder[stable] {
		stable++
	}
	e.prof.CopyFrom(env.Availability())
	cut := stable
	for i := 0; i < stable; i++ {
		q := e.queue[i]
		est := q.job.Estimate
		limit := q.res
		if e.holeEnd < limit {
			limit = e.holeEnd
		}
		if _, ok := e.prof.EarliestFitBefore(now, limit, est, q.job.Nodes); ok {
			cut = i // first job that reaches the hole: replay live from here
			break
		}
		// No start in the window: the replay keeps this reservation verbatim.
		if err := e.prof.Occupy(q.res, q.res+est, q.job.Nodes); err != nil {
			panic(fmt.Sprintf("sched: partial rebuild re-occupy: %v", err))
		}
	}
	for _, q := range e.queue[cut:] {
		e.place(env, q, now)
	}
	e.lastOrder = e.lastOrder[:0]
	for _, q := range e.queue {
		e.lastOrder = append(e.lastOrder, q.job.ID)
	}
	e.holes = false
	e.holeEnd = 0
}

// byReservation orders placed entries by reservation start, unplaced ones
// after them (the static revalidation order; every due entry is placed).
func byReservation(a, b *reservedJob) int {
	if a.hasRes != b.hasRes {
		if a.hasRes {
			return -1
		}
		return 1
	}
	if a.hasRes {
		return cmp.Compare(a.res, b.res)
	}
	return 0
}

// allPlaced reports whether every entry of q holds a reservation.
func allPlaced(q []*reservedJob) bool {
	for _, r := range q {
		if !r.hasRes {
			return false
		}
	}
	return true
}

// place reserves q at the earliest fit of its rectangle no earlier than
// `after` and occupies it in the cached profile.
func (e *conservativeEngine) place(env sim.Env, q *reservedJob, after int64) {
	s, ok := e.prof.EarliestFit(after, q.job.Estimate, q.job.Nodes)
	if !ok {
		panic(fmt.Sprintf("sched: no fit for %v on %d nodes", q.job, env.SystemSize()))
	}
	if err := e.prof.Occupy(s, s+q.job.Estimate, q.job.Nodes); err != nil {
		panic(fmt.Sprintf("sched: reserve: %v", err))
	}
	q.res, q.hasRes = s, true
}

// improve runs the static engine's compression loop: in queue priority
// order, each job may move its reservation strictly earlier into holes left
// by others. One pass under-compresses — a wide job's window only opens
// after the jobs reserved behind it have themselves moved forward — so the
// pass repeats until no reservation improves (bounded; each pass strictly
// reduces total reserved start time). An exhausted pass budget is recorded
// in holes so the next event resumes the loop.
//
// The queue is sorted in place: nothing else in the static engine depends
// on its order (every other sort is total), and the next pass then starts
// from the last pass's priority order.
func (e *conservativeEngine) improve(env sim.Env) {
	now := env.Now()
	e.prio.sort(env, e.queue, nil)
	for pass := 0; pass < improvementPasses; pass++ {
		changed := false
		for _, q := range e.queue {
			// The read-only probe answers what releasing the reservation
			// and searching again would; a job that keeps its reservation
			// leaves the profile untouched.
			est := q.job.Estimate
			s, ok := e.prof.EarliestMove(now, q.res, est, q.job.Nodes)
			if !ok {
				continue
			}
			if err := e.prof.Release(q.res, q.res+est, q.job.Nodes); err != nil {
				panic(fmt.Sprintf("sched: release: %v", err))
			}
			if err := e.prof.Occupy(s, s+est, q.job.Nodes); err != nil {
				panic(fmt.Sprintf("sched: re-reserve: %v", err))
			}
			changed = true
			q.res = s
		}
		if !changed {
			return
		}
	}
	// Pass budget exhausted before the fixpoint: the from-scratch schedule
	// would restart the loop at the next event, so the cache must too.
	e.holes = true
}
