package fairness

import (
	"fairsched/internal/job"
	"fairsched/internal/sim"
	"fairsched/internal/slo"
)

// SLOObserver accrues per-user SLO attainment online, as the run
// progresses — the first measurement-plane consumer of the incremental
// hybrid-FST engine's hooks. It judges each logical job's queuing delay
// the moment the job starts (reading the engine's fair start time, already
// recorded at the job's arrival, to split breaches into policy-caused and
// infeasible-under-contention) and the slowdown half at completion; no
// post-run record walk happens, and the steady-state path allocates
// nothing (the per-user table and per-class histograms are preallocated
// from the assignment — see slo.Tracker).
//
// The observer must be attached to the same simulator as the engine it
// reads, and AFTER it in the observer list is not required: the engine
// records a job's fair start at JobArrived, which the simulator always
// fires before the job can start. With a nil engine (fairness metrics
// skipped) attainment is still tracked; only the unfair/infeasible breach
// split stays zero.
//
// The differential suite (slo_test.go) pins the observer's output
// byte-identical to slo.FromRecords — the from-scratch post-run reference
// over Result.Records — across calm, contended, split and kill workloads.
type SLOObserver struct {
	sim.BaseObserver
	t   *slo.Tracker
	fst *HybridFST
}

// NewSLOObserver builds an observer over an assignment; fst may be nil.
func NewSLOObserver(asg *slo.Assignment, fst *HybridFST) *SLOObserver {
	return &SLOObserver{t: slo.NewTracker(asg), fst: fst}
}

// JobStarted implements sim.Observer: the wait-time judgment.
func (o *SLOObserver) JobStarted(env sim.Env, j *job.Job) {
	var fair int64
	var ok bool
	if o.fst != nil {
		fair, ok = o.fst.FST(j.ID)
	}
	o.t.JobStarted(j, env.Now(), fair, ok)
}

// JobCompleted implements sim.Observer: the slowdown judgment.
func (o *SLOObserver) JobCompleted(env sim.Env, j *job.Job, start int64) {
	o.t.JobCompleted(j, start, env.Now())
}

// SetChained selects chain-level slowdown judgment for SplitChained runs
// (see slo.Tracker.SetChained): the chain is judged at its last segment's
// completion against the original submit.
func (o *SLOObserver) SetChained(on bool) { o.t.SetChained(on) }

// UserAtRisk implements sched.BreachRisk over the online tracker: a user
// reads as at-risk once at least one breach (wait or slowdown) is on the
// books this run. The deadline-aware order (order=edf) promotes such
// users' queued jobs ahead of everything else.
func (o *SLOObserver) UserAtRisk(user int) bool { return o.t.UserBreached(user) }

// FlaggedUsers implements sched.BreachRisk: the count of users UserAtRisk
// flags so far, the edf order's key epoch.
func (o *SLOObserver) FlaggedUsers() int { return o.t.FlaggedUsers() }

// Tracker exposes the accounting core, so partitioned runs can merge the
// per-partition observers into one report (slo.Tracker.Merge).
func (o *SLOObserver) Tracker() *slo.Tracker { return o.t }

// Summary returns the per-class attainment report accrued so far.
func (o *SLOObserver) Summary() *slo.Summary { return o.t.Summary() }

// PerUser returns the per-user stats accrued so far, in ascending user-id
// order.
func (o *SLOObserver) PerUser() []slo.UserStats { return o.t.PerUser() }
