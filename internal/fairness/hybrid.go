package fairness

import (
	"fmt"
	"slices"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// HybridFST is the paper's hybrid "fairshare" fair-start-time engine
// (§4.1), packaged as a simulation observer. At every job arrival it
// list-schedules the currently queued jobs plus the arriving job, in
// fairshare priority order, on top of the actual system state (running jobs
// with their true remaining runtimes), with no backfilling. The arriving
// job's start in that hypothetical schedule is its fair start time.
//
// Compared with the metrics it hybridizes: unlike CONS-P it starts from the
// real state at arrival (eliminating CONS-P's performance artifacts), and
// unlike the Sabin/Sadayappan FST it uses a fixed reference discipline
// (fairshare list scheduling) instead of the policy under test, so values
// are comparable across schedulers.
//
// The engine is incremental. The running set's availability multiset is
// maintained across events by the JobStarted/JobCompleted hooks (one add
// and one remove per job) instead of being re-derived from env.Running()
// at every arrival. The engine also keeps its own queue of first segments
// (FST queue = arrived first segments − started), inserted at arrival and
// removed at start, in fairshare order: between arrivals only running
// users' usage moves, so the queue is usually still sorted after its keys
// are refreshed, and the jobs ahead of an arrival are the prefix before
// its binary-search position. The per-arrival reference schedule reuses
// persistent scratch buffers, so the steady-state hot path is
// allocation-free. It deliberately does NOT read the simulator's shared
// sim.Env.Availability() profile: that profile promises release times from
// user estimates (with overrun backoff), while the fair reference schedule
// uses the running jobs' true remaining runtimes (perfect estimates, as in
// CONS-P) — see DESIGN.md §10 on measurement-plane invariants.
type HybridFST struct {
	sim.BaseObserver
	fst map[job.ID]int64

	// base is the running set's availability multiset: one (start +
	// EffectiveRuntime, nodes) entry per running job, inserted at start and
	// removed at completion. A running segment of a checkpoint chain holds
	// its nodes for the chain's remaining runtime, so the entry key is
	// reproducible at completion from the recorded start time.
	base availability
	// scratch is the per-arrival working multiset the reference list
	// schedule consumes; seeded from base plus the free-nodes-now entry and
	// reused across arrivals.
	scratch availability
	// queue holds the queued first segments (Segment <= 1) in fairshare
	// order over the usage keys last refreshed. Restart segments never
	// enter: a restart's remaining chain is already accounted for in the
	// availability via its running predecessor or, if queued, by the
	// logical job's own first segment (upfront splitting).
	queue []queuedJob
}

// queuedJob pairs a queued job with its fairshare priority key, refreshed
// once per arrival, so the reference-order compares never re-read the
// usage ledger.
type queuedJob struct {
	job   *job.Job
	usage float64
}

// NewHybridFST returns an empty engine; attach it to a simulator as an
// observer.
func NewHybridFST() *HybridFST {
	return &HybridFST{fst: make(map[job.ID]int64)}
}

// JobStarted implements sim.Observer: the job leaves the FST queue, and its
// nodes re-enter the availability multiset at its true completion time.
func (h *HybridFST) JobStarted(env sim.Env, j *job.Job) {
	h.base.add(env.Now()+j.EffectiveRuntime(), j.Nodes)
	h.dequeue(j)
}

// JobCompleted implements sim.Observer: drop exactly the entry JobStarted
// inserted. Kills and early completions fire this too, so the multiset
// tracks the live running set even when the promised release time was never
// reached.
func (h *HybridFST) JobCompleted(_ sim.Env, j *job.Job, start int64) {
	if err := h.base.remove(start+j.EffectiveRuntime(), j.Nodes); err != nil {
		panic(fmt.Sprintf("fairness: hybrid FST availability drift: %v", err))
	}
}

// JobArrived implements sim.Observer. The engine schedules from its own
// queue; the policy's queued slice is not read.
//
// Checkpoint chains created by a maximum-runtime policy are one logical job
// for fairness purposes: in the fair reference schedule (no backfilling,
// fairshare order, no preemption) the chain holds its nodes contiguously.
// Only the chain's first segment therefore receives an FST — charged with
// the full chain runtime — and restart segments are neither scheduled
// separately nor measured (fairness.Measure skips records without an FST
// entry, so the unfairness denominators count user-submitted jobs).
//
// Jobs the fairshare order places after the arriving job cannot influence a
// no-backfill list schedule, so only the queue's prefix ahead of it is
// placed — the rest of the queue is never touched.
func (h *HybridFST) JobArrived(env sim.Env, j *job.Job, _ []*job.Job) {
	if j.Segment > 1 {
		return // restart of an already-measured logical job
	}
	fs := env.Fairshare()
	for i := range h.queue {
		h.queue[i].usage = fs.Usage(h.queue[i].job.User)
	}
	// The fairshare order is total over distinct jobs (usage, submission,
	// id), so a plain (unstable, reflection-free) sort is deterministic.
	if !slices.IsSortedFunc(h.queue, queuedCmp) {
		slices.SortFunc(h.queue, queuedCmp)
	}
	target := queuedJob{job: j, usage: fs.Usage(j.User)}
	n, _ := slices.BinarySearchFunc(h.queue, target, queuedCmp)

	h.scratch.copyFrom(&h.base)
	h.scratch.add(env.Now(), env.FreeNodes())
	for _, q := range h.queue[:n] {
		if _, err := h.scratch.allocate(q.job.Nodes, q.job.EffectiveRuntime()); err != nil {
			panic(fmt.Sprintf("fairness: hybrid FST: %v", err))
		}
	}
	start, err := h.scratch.allocate(j.Nodes, j.EffectiveRuntime())
	if err != nil {
		panic(fmt.Sprintf("fairness: hybrid FST: %v", err))
	}
	h.fst[j.ID] = start
	h.queue = slices.Insert(h.queue, n, target)
}

// dequeue removes j from the FST queue, if it is there. Restart segments
// never entered it.
func (h *HybridFST) dequeue(j *job.Job) {
	if j.Segment > 1 {
		return
	}
	for i := range h.queue {
		if h.queue[i].job == j {
			h.queue = slices.Delete(h.queue, i, i+1)
			return
		}
	}
}

// queuedCmp is the fairshare queue order over refreshed keys as a
// three-way comparison (fairshare.Compare), without re-reading the usage
// ledger.
func queuedCmp(a, b queuedJob) int { return fairshare.Compare(a.usage, a.job, b.usage, b.job) }

// FST returns the fair start time recorded for a job.
func (h *HybridFST) FST(id job.ID) (int64, bool) {
	t, ok := h.fst[id]
	return t, ok
}

// Table returns a copy of the complete id -> FST table. Handing out the
// live internal map would let callers corrupt engine state.
func (h *HybridFST) Table() map[job.ID]int64 {
	out := make(map[job.ID]int64, len(h.fst))
	for id, t := range h.fst {
		out[id] = t
	}
	return out
}
