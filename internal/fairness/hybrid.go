package fairness

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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
// removed at start, in one bucket per tie group: the users whose usage
// keys are equal share a bucket whose jobs are kept merged in (Submit, ID)
// order, which is fairshare.Compare at equal keys. An arrival refreshes
// one key per user, not per job; between arrivals only running users'
// usage moves, so the buckets are usually still in ascending usage and
// the users of a bucket still tied. The jobs ahead of an arrival are every
// bucket of lower usage, whole, and the prefix of its own usage's bucket
// before its binary-search position. The per-arrival reference schedule
// reuses persistent scratch buffers, so the steady-state hot path is
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
	// ties holds the queued first segments (Segment <= 1) in buckets of
	// distinct usage, ascending over the keys last refreshed. Restart
	// segments never enter: a restart's remaining chain is already
	// accounted for in the availability via its running predecessor or, if
	// queued, by the logical job's own first segment (upfront splitting).
	ties []tieGroup
	// spare holds emptied buckets for reuse.
	spare []tieGroup
}

// tieGroup is one bucket of the FST queue: the users whose usage key is
// usage, each with its count of queued jobs, and those jobs merged in
// (Submit, ID) order. A user is in at most one bucket.
type tieGroup struct {
	usage float64
	users []userJobs
	jobs  []*job.Job
}

type userJobs struct{ user, jobs int }

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
// no-backfill list schedule, so only the buckets of lower usage and the
// part of the arrival's own usage's bucket ahead of it are placed — the
// rest of the queue is never touched.
func (h *HybridFST) JobArrived(env sim.Env, j *job.Job, _ []*job.Job) {
	if j.Segment > 1 {
		return // restart of an already-measured logical job
	}
	fs := env.Fairshare()
	if !h.refresh(fs) {
		h.regroup(fs)
	}
	usage := fs.Usage(j.User)
	n := sort.Search(len(h.ties), func(i int) bool { return h.ties[i].usage >= usage })
	var ahead []*job.Job // the arrival's own bucket's jobs before it
	if n < len(h.ties) && h.ties[n].usage == usage {
		g := h.ties[n].jobs
		ahead = g[:sort.Search(len(g), func(i int) bool { return before(j, g[i]) })]
	}

	h.scratch.copyFrom(&h.base)
	h.scratch.add(env.Now(), env.FreeNodes())
	for _, g := range h.ties[:n] {
		for _, q := range g.jobs {
			h.place(q)
		}
	}
	for _, q := range ahead {
		h.place(q)
	}
	h.fst[j.ID] = h.place(j)
	h.enqueue(j, usage, n, len(ahead))
}

// place allocates q in the per-arrival reference schedule and returns its
// start.
func (h *HybridFST) place(q *job.Job) int64 {
	start, err := h.scratch.allocate(q.Nodes, q.EffectiveRuntime())
	if err != nil {
		panic(fmt.Sprintf("fairness: hybrid FST: %v", err))
	}
	return start
}

// refresh re-reads the usage keys and reports whether the buckets still
// hold. A one-user bucket takes its user's key; a tied bucket keeps its
// key and holds while every user still has it. The keys must stay
// strictly ascending.
func (h *HybridFST) refresh(fs *fairshare.Tracker) bool {
	ok := true
	for i := range h.ties {
		g := &h.ties[i]
		if len(g.users) == 1 {
			g.usage = fs.Usage(g.users[0].user)
		} else {
			for _, u := range g.users {
				ok = ok && fs.Usage(u.user) == g.usage
			}
		}
		ok = ok && (i == 0 || h.ties[i-1].usage < g.usage)
	}
	return ok
}

// regroup restores the buckets after refresh found them broken, which is
// rare: the users of a tied bucket whose usage moved leave it, with their
// jobs, for buckets of their own, and then the buckets are sorted by usage
// and equal neighbours merged.
func (h *HybridFST) regroup(fs *fairshare.Tracker) {
	for i := 0; i < len(h.ties); i++ {
		if len(h.ties[i].users) == 1 {
			continue // refresh keyed it
		}
		for k := 0; len(h.ties[i].users) > 1 && k < len(h.ties[i].users); {
			g := &h.ties[i]
			u := g.users[k]
			v := fs.Usage(u.user)
			if v == g.usage {
				k++
				continue
			}
			moved := h.bucket(v, u)
			kept := g.jobs[:0]
			for _, q := range g.jobs {
				if q.User == u.user {
					moved.jobs = append(moved.jobs, q)
				} else {
					kept = append(kept, q)
				}
			}
			clear(g.jobs[len(kept):])
			g.jobs = kept
			g.users = slices.Delete(g.users, k, k+1)
			h.ties = append(h.ties, moved)
		}
		if g := &h.ties[i]; len(g.users) == 1 {
			g.usage = fs.Usage(g.users[0].user)
		}
	}
	slices.SortFunc(h.ties, func(a, b tieGroup) int { return cmp.Compare(a.usage, b.usage) })
	merged := h.ties[:0]
	for _, g := range h.ties {
		if n := len(merged); n > 0 && merged[n-1].usage == g.usage {
			last := &merged[n-1]
			last.users = append(last.users, g.users...)
			last.jobs = append(last.jobs, g.jobs...)
			slices.SortFunc(last.jobs, func(a, b *job.Job) int { return fairshare.Compare(0, a, 0, b) })
			h.recycle(g)
			continue
		}
		merged = append(merged, g)
	}
	clear(h.ties[len(merged):])
	h.ties = merged
}

// enqueue adds j, whose user's usage is usage, to the FST queue: at
// position at of bucket n when that bucket holds usage (the user's jobs,
// if any, are there), else in a new bucket inserted at n.
func (h *HybridFST) enqueue(j *job.Job, usage float64, n, at int) {
	if n == len(h.ties) || h.ties[n].usage != usage {
		g := h.bucket(usage, userJobs{user: j.User, jobs: 1})
		g.jobs = append(g.jobs, j)
		h.ties = slices.Insert(h.ties, n, g)
		return
	}
	g := &h.ties[n]
	g.jobs = slices.Insert(g.jobs, at, j)
	for k := range g.users {
		if g.users[k].user == j.User {
			g.users[k].jobs++
			return
		}
	}
	g.users = append(g.users, userJobs{user: j.User, jobs: 1})
}

// dequeue removes j from the FST queue, if it is there, recycling its
// bucket when it empties. Restart segments never entered it.
func (h *HybridFST) dequeue(j *job.Job) {
	if j.Segment > 1 {
		return
	}
	for i := range h.ties {
		g := &h.ties[i]
		for k := range g.users {
			if g.users[k].user != j.User {
				continue
			}
			x := slices.Index(g.jobs, j)
			if x < 0 {
				return
			}
			g.jobs = slices.Delete(g.jobs, x, x+1)
			if g.users[k].jobs--; g.users[k].jobs == 0 {
				g.users = slices.Delete(g.users, k, k+1)
			}
			if len(g.users) == 0 {
				h.recycle(*g)
				h.ties = slices.Delete(h.ties, i, i+1)
			}
			return
		}
	}
}

// bucket returns an empty bucket for usage holding user u, reusing a spare
// one's arrays.
func (h *HybridFST) bucket(usage float64, u userJobs) tieGroup {
	var g tieGroup
	if n := len(h.spare); n > 0 {
		g, h.spare[n-1] = h.spare[n-1], tieGroup{}
		h.spare = h.spare[:n-1]
	}
	g.usage = usage
	g.users = append(g.users[:0], u)
	g.jobs = g.jobs[:0]
	return g
}

// recycle keeps an emptied bucket's arrays for the next new bucket.
func (h *HybridFST) recycle(g tieGroup) {
	clear(g.jobs) // removals already zeroed the rest of the array
	h.spare = append(h.spare, g)
}

// before is the fairshare order between two jobs of equal usage: earlier
// submission, then lower id.
func before(a, b *job.Job) bool { return fairshare.Compare(0, a, 0, b) < 0 }

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
