// Package sim implements the event-based cluster simulator the study runs
// on: a space-shared machine of N identical nodes, non-preemptive jobs,
// dynamically arriving work, pluggable scheduling policies, fairshare usage
// accounting, optional maximum-runtime job splitting (checkpoint/restart
// chains) and observer hooks for metrics and fairness engines.
//
// Scheduling events are job arrivals, job completions and policy wake-ups
// (starvation-queue promotion instants, fairshare decay boundaries). The
// simulator is fully deterministic: same inputs, same run.
package sim

import (
	"fmt"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
)

// KillPolicy selects what happens when a job reaches its wall-clock limit
// while still running. The paper's system "kills jobs after the user
// supplied wall clock limit (WCL) is reached. However, if no other job
// requires the processors, the job is allowed to continue running". The
// study itself replays trace runtimes, so KillNever is the default.
type KillPolicy int

const (
	// KillNever runs every job for its full actual runtime (trace replay).
	KillNever KillPolicy = iota
	// KillWhenNeeded terminates an over-limit job as soon as any job is
	// queued (the real CPlant behaviour, provided as an extension).
	KillWhenNeeded
	// KillAlways terminates every job at min(runtime, estimate).
	KillAlways
)

func (k KillPolicy) String() string {
	switch k {
	case KillNever:
		return "never"
	case KillWhenNeeded:
		return "when-needed"
	case KillAlways:
		return "always"
	default:
		return fmt.Sprintf("KillPolicy(%d)", int(k))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	// SystemSize is the number of compute nodes (default 1000, the
	// study's calibrated substitute for CPlant/Ross — DESIGN.md §5).
	SystemSize int
	// Fairshare configures the decaying-usage priority tracker.
	Fairshare fairshare.Config
	// FairshareEpoch aligns the tracker's decay boundaries: they fire at
	// FairshareEpoch + k·DecayInterval in simulation time. Real schedulers
	// decay at fixed wall-clock instants, so for an SWF trace this is
	// fairshare.EpochFor(header.UnixStartTime, interval); 0 (the default)
	// aligns boundaries to the trace origin.
	FairshareEpoch int64
	// MaxRuntime, when positive, enforces the paper's maximum-runtime
	// policy: estimates are capped to it and jobs running longer are split
	// into segments of at most MaxRuntime seconds (see SplitMode).
	MaxRuntime int64
	// Split selects how segments are submitted (default SplitUpfront).
	Split SplitMode
	// Kill selects the wall-clock-limit kill behaviour (default KillNever).
	Kill KillPolicy
	// Validate enables per-event invariant checking (used in tests; cheap
	// enough to leave on for small runs).
	Validate bool
	// Preemptable enables the checkpoint-preemption path (Env implementors
	// expose it via the Preempter extension): policies may terminate a
	// running job at the current instant and have its remainder resubmitted
	// as a chained segment. The simulator then runs on private clones of
	// the workload jobs, because preemption extends a job's chain metadata
	// in place; non-preemptable runs share workload slices untouched.
	Preemptable bool
	// FirstSegmentID, when positive, raises the floor for the ids allocated
	// to split segments (normally workload max + 1). Multi-partition runs
	// hand each partition's loop a disjoint range (see SegmentIDBudget) so
	// merged records keep globally unique ids.
	FirstSegmentID job.ID
}

func (c Config) withDefaults() Config {
	if c.SystemSize <= 0 {
		c.SystemSize = 1000
	}
	return c
}

// RunningJob is a job that has been started and not yet completed.
type RunningJob struct {
	Job   *job.Job
	Start int64
}

// EstimatedCompletion returns when the scheduler should expect the job to
// finish: start + estimate while the job is within its wall-clock limit.
// Once a job overruns, the expectation backs off exponentially (start +
// estimate*2^k for the smallest k putting it in the future). A naive "now +
// epsilon" clamp would pin every reservation built on the job's nodes to the
// immediate future for the whole overrun, freezing backfill behind it; the
// doubling keeps the promised release plausibly ahead without ever drifting
// more than a factor of two past the true remaining overrun.
func (r RunningJob) EstimatedCompletion(now int64) int64 {
	est := r.Job.Estimate
	if est < 1 {
		est = 1
	}
	ec := r.Start + est
	for ec <= now {
		est *= 2
		ec = r.Start + est
	}
	return ec
}

// Env is the interface policies and observers use to inspect and act on the
// simulated system. The simulator itself implements it.
type Env interface {
	// Now returns the current simulation time.
	Now() int64
	// SystemSize returns the total node count.
	SystemSize() int
	// FreeNodes returns the currently idle node count.
	FreeNodes() int
	// Running returns the running jobs in start order (then job id). The
	// returned slice must not be mutated.
	Running() []RunningJob
	// Fairshare returns the usage tracker (settled up to Now).
	Fairshare() *fairshare.Tracker
	// Availability returns the free-capacity timeline implied by the running
	// jobs: free nodes from Now onwards, with each running job occupying its
	// nodes until its estimated completion (overruns backed off as in
	// RunningJob.EstimatedCompletion). The profile is built at most once per
	// scheduling pass and shared by every policy component — reservation
	// searches, backfill feasibility checks, starvation-queue reservations —
	// so callers MUST NOT mutate it; copy it (profile.CopyFrom) before
	// occupying. The returned profile is invalidated by the next Start call
	// and by the clock advancing: re-fetch it rather than retaining it across
	// starts.
	Availability() *profile.Profile
	// Start launches a queued job immediately. It fails if the job does not
	// fit in the free nodes or was already started. Starting a job
	// invalidates the Availability profile.
	Start(j *job.Job) error
}

// Preempter is the optional Env extension preemption-capable environments
// provide. Policies discover it by type assertion — env.(Preempter) — so
// existing Env implementations stay valid. The Simulator always implements
// it; Preemptable reports whether this run actually allows preemption.
type Preempter interface {
	// Preemptable reports whether the run allows preemption at all (for
	// the Simulator, Config.Preemptable). When false, CanPreempt is always
	// false and Preempt always fails.
	Preemptable() bool
	// CanPreempt reports whether j can be checkpointed right now: the run
	// is preemptable and j is running with at least one second of realized
	// service and one second of scheduled service left. Policies use it to
	// select victim sets that Preempt will accept in full, so a multi-victim
	// preemption never fails half-way through.
	CanPreempt(j *job.Job) bool
	// Preempt checkpoints a running job at the current instant: the job is
	// terminated (its record finalized as preempted), its remainder is
	// resubmitted as a chained segment at the same instant, and chain
	// metadata (Parent/Segment/Segments/ChainRuntime) ties the pieces into
	// one logical job for the fairness and SLO accounting. Only valid from
	// inside a policy scheduling callback.
	Preempt(j *job.Job) error
}

// Policy is a scheduling policy under test. The simulator calls exactly one
// of Arrive/Complete/Wake per scheduling event; the policy reacts by calling
// Env.Start for every job it launches.
type Policy interface {
	// Name identifies the policy in results (e.g. "cplant24.nomax.all").
	Name() string
	// Reset prepares the policy for a fresh run on the given environment.
	Reset(env Env)
	// Arrive handles a job submission (the job is now queued with the
	// policy until it calls env.Start).
	Arrive(env Env, j *job.Job)
	// Complete handles a job completion (a scheduling event).
	Complete(env Env, j *job.Job)
	// Wake handles a timed scheduling event requested via NextWake.
	Wake(env Env)
	// NextWake returns the next instant strictly after now at which the
	// policy wants a Wake (e.g. a starvation-queue promotion time).
	NextWake(now int64) (int64, bool)
	// Queued returns all jobs currently queued (any internal queue), in a
	// deterministic order. The slice must not be retained by callers.
	Queued() []*job.Job
}

// Observer receives simulation lifecycle callbacks. Metrics collectors and
// fairness engines implement it.
type Observer interface {
	// JobArrived fires when a job is submitted, before the policy sees it.
	// queued is the policy's queue at that instant (not yet containing j).
	JobArrived(env Env, j *job.Job, queued []*job.Job)
	// JobStarted fires when a job begins execution.
	JobStarted(env Env, j *job.Job)
	// JobCompleted fires when a job finishes; start is its start time.
	JobCompleted(env Env, j *job.Job, start int64)
	// Interval fires for every maximal time span [from, to) during which
	// the system state was constant, with the nodes in use and the total
	// nodes requested by queued jobs during the span.
	Interval(from, to int64, usedNodes, queuedNodes int)
	// Done fires after the last event.
	Done(env Env)
}

// BaseObserver is a no-op Observer for embedding.
type BaseObserver struct{}

// JobArrived implements Observer.
func (BaseObserver) JobArrived(Env, *job.Job, []*job.Job) {}

// JobStarted implements Observer.
func (BaseObserver) JobStarted(Env, *job.Job) {}

// JobCompleted implements Observer.
func (BaseObserver) JobCompleted(Env, *job.Job, int64) {}

// Interval implements Observer.
func (BaseObserver) Interval(int64, int64, int, int) {}

// Done implements Observer.
func (BaseObserver) Done(Env) {}

// Record is the outcome of one job (or segment) in a run.
type Record struct {
	Job      *job.Job
	Submit   int64
	Start    int64
	Complete int64
	Started  bool
	Finished bool
	// Killed marks a job terminated at its wall-clock limit by a kill
	// policy; Complete then reflects the truncated runtime.
	Killed bool
	// Preempted marks a job checkpointed by a preemptive policy; Complete
	// reflects the service realized before the checkpoint, and the
	// remainder re-entered the queue as a chained segment with its own
	// record.
	Preempted bool
}

// Wait returns the queuing delay.
func (r *Record) Wait() int64 { return r.Start - r.Submit }

// Turnaround returns completion - arrival (Equation 1's per-job term).
func (r *Record) Turnaround() int64 { return r.Complete - r.Submit }

// Result is the outcome of a full simulation run.
type Result struct {
	Policy     string
	SystemSize int
	// Records lists every job the scheduler saw (segments included when
	// max-runtime splitting is active), sorted by submit time then id.
	Records []*Record
	// Makespan is max completion - min start (Equation 3).
	Makespan int64
	// FirstStart and LastCompletion bound the schedule.
	FirstStart     int64
	LastCompletion int64
	// Events counts processed scheduling events (diagnostics).
	Events int64
}
