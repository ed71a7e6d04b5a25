package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"fairsched/internal/fairness"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/slo"
	"fairsched/internal/topology"
)

// layout is one run split into independent event loops. Every partition
// is a deterministic simulation over a disjoint workload slice and a
// disjoint split-segment id range; the loops run one after another and
// their results merge in declaration order.
type layout struct {
	parts []*partition
	place map[int]place // each user's place; nil for a flat run, which routes nothing
}

// place is where a user's jobs run: a partition and, when the partition
// declares leaves, a leaf with its path and the queue whose cap= quota
// binds it (nil: none).
type place struct {
	part, leaf int
	queue      string
	quota      *topology.QueueNode
}

// partition is one event loop: a machine group, its declared queue-tree
// nodes (none: the spec's Composite runs alone), the jobs routed to it and
// the observers it feeds.
type partition struct {
	topology.Partition
	queues   []sched.QueueConfig
	jobs     []*job.Job
	firstSeg job.ID
	col      *metrics.Collector
	fst      *fairness.HybridFST
	eq       *fairness.Equality
	slo      *fairness.SLOObserver
}

// route splits the run into partitions and the workload across them. A
// nil Topology is the zero topology's one default partition of the whole
// machine, carrying the whole workload. Under a topology each user's jobs
// go to one place: a queue tag names a declared leaf (implying its
// partition), a bare partition tag the partition's first leaf, and an
// untagged user the default partition's first leaf. Routing is per user,
// so checkpoint chains never span partitions. A job wider than its leaf's
// quota could never start, so it fails the run here, before any loop runs.
func route(cfg StudyConfig, spec Spec, workload []*job.Job) (*layout, error) {
	topo := cfg.Topology
	if topo == nil {
		topo = &topology.Topology{}
	}
	l := &layout{}
	partAt := make(map[string]place) // partition name -> its first leaf
	leafAt := make(map[string]place) // declared leaf path -> its place
	for i, p := range topo.EffectivePartitions(cfg.SystemSize) {
		part := &partition{Partition: p}
		partAt[p.Name] = place{part: i}
		leaves, k := topo.LeavesFor(p.Name), 0
		for _, q := range topo.Queues {
			if topo.PartitionOf(q) != p.Name {
				continue
			}
			// A leaf runs its own policy or inherits the spec; an inner
			// node carries only its share and quota.
			qc := sched.QueueConfig{Path: q.Path, Guarantee: q.Guarantee, Cap: q.Cap}
			if k < len(leaves) && leaves[k].Path == q.Path {
				if qc.Spec = q.Policy; qc.Spec == nil {
					qc.Spec = &spec
				}
				pl := place{part: i, leaf: k, queue: q.Path, quota: topo.Quota(q)}
				if leafAt[q.Path] = pl; k == 0 {
					partAt[p.Name] = pl
				}
				k++
			}
			part.queues = append(part.queues, qc)
		}
		l.parts = append(l.parts, part)
	}
	if cfg.Topology == nil {
		l.parts[0].jobs = workload
		return l, nil
	}

	l.place = make(map[int]place)
	var maxID job.ID
	for _, j := range workload {
		maxID = max(maxID, j.ID)
		pl, ok := l.place[j.User]
		if !ok {
			if qpath, tagged := cfg.Placement.Queue(j.User); tagged {
				if pl, ok = leafAt[qpath]; !ok {
					return nil, fmt.Errorf("core: user %d is tagged with queue %q, which is not a declared leaf of the topology", j.User, qpath)
				}
			} else if pname, tagged := cfg.Placement.PartitionTag(j.User); tagged {
				if pl, ok = partAt[pname]; !ok {
					return nil, fmt.Errorf("core: user %d is tagged with partition %q, which the topology does not declare", j.User, pname)
				}
			} else {
				pl = partAt[l.parts[0].Name]
			}
			l.place[j.User] = pl
		}
		p := l.parts[pl.part]
		if q := pl.quota; q != nil && j.Nodes <= p.Nodes {
			if quota := sched.QuotaNodes(q.Cap, p.Nodes); j.Nodes > quota {
				return nil, fmt.Errorf("core: %s: partition %s: job %d: nodes %d exceed queue %s quota %d (cap=%v of %d nodes)",
					spec.String(), p.Name, j.ID, j.Nodes, q.Path, quota, q.Cap, p.Nodes)
			}
		}
		p.jobs = append(p.jobs, j)
	}

	// Several partitions get disjoint contiguous split-segment id ranges,
	// so merged records and FST tables cannot collide (and each loop's
	// dense record index stays dense). One partition's simulator allocates
	// from the workload's largest id up, as a flat run's does.
	if len(l.parts) > 1 {
		next := maxID + 1
		for _, p := range l.parts {
			p.firstSeg = next
			next += job.ID(sim.SegmentIDBudget(p.jobs, spec.MaxRuntime))
		}
	}
	return l, nil
}

// build wires partition p's event loop: observers in the order collector,
// FST, equality, SLO, and the policy — the spec's Composite when the
// partition declares no leaves, a MultiQueue over its queue tree when it
// does.
func (l *layout) build(p *partition, cfg StudyConfig, spec Spec) (*sim.Simulator, error) {
	// Only preemptive specs pay the preemption path (per-job workload
	// clones, remainder requeues).
	preempt := spec.PreemptTrigger != ""
	p.col = metrics.NewCollector(p.Nodes)
	observers := []sim.Observer{p.col}
	if !cfg.SkipFST {
		p.fst = fairness.NewHybridFST()
		observers = append(observers, p.fst)
	}
	if cfg.Equality {
		p.eq = fairness.NewEquality(p.Nodes)
		observers = append(observers, p.eq)
	}
	if cfg.SLO.NumUsers() > 0 {
		// The observer reads the engine's fair start times (recorded at
		// arrival) to split breaches into policy-caused and infeasible;
		// with SkipFST it still tracks attainment, unclassified. Chained
		// splits — and preemption, which resubmits a victim's remainder as
		// a chained segment — model one logical job as a checkpoint chain:
		// judge its slowdown once, at the last segment's completion,
		// against the original submit (DESIGN.md §11, §16).
		p.slo = fairness.NewSLOObserver(cfg.SLO, p.fst)
		p.slo.SetChained(cfg.Split == sim.SplitChained || preempt)
		observers = append(observers, p.slo)
	}

	var pol sim.Policy
	if len(p.queues) == 0 {
		c := sched.MustNew(spec) // Admit vetted the spec
		if p.slo != nil {
			// Deadline-aware components (order=edf, preempt=deadline.*)
			// read per-user deadlines from the assignment and breach risk
			// from the observer. Without an assignment the edf order
			// degrades to FCFS and the deadline trigger never fires.
			c.SetSLOContext(cfg.SLO, p.slo)
		}
		pol = c
	} else {
		mq, err := sched.NewMultiQueue(p.queues, func(j *job.Job) int { return l.place[j.User].leaf }, cfg.Fairshare, cfg.FairshareEpoch)
		if err != nil {
			return nil, fmt.Errorf("core: partition %s: %w", p.Name, err)
		}
		pol = mq
	}

	return sim.New(sim.Config{
		SystemSize:     p.Nodes,
		Fairshare:      cfg.Fairshare,
		FairshareEpoch: cfg.FairshareEpoch,
		MaxRuntime:     spec.MaxRuntime,
		Split:          cfg.Split,
		Kill:           cfg.Kill,
		Validate:       cfg.Validate,
		Preemptable:    preempt,
		FirstSegmentID: p.firstSeg,
	}, pol, observers...), nil
}

// merge folds the partitions' results into one Run, in declaration order.
// A single partition is the identity: its result, FST table, collector and
// SLO tracker are the run's. Several merge: records re-sorted on the
// global (submit, id) order, FST tables unioned, collectors and SLO
// trackers folded.
func (l *layout) merge(cfg StudyConfig, spec Spec, results []*sim.Result) *Run {
	run := &Run{Spec: spec}
	var col *metrics.Collector
	var tr *slo.Tracker
	if len(results) == 1 {
		p := l.parts[0]
		run.Result, run.Equality, col = results[0], p.eq, p.col
		if p.fst != nil {
			run.FST = p.fst.Table()
		}
		if p.slo != nil {
			tr = p.slo.Tracker()
		}
	} else {
		run.Result = mergeResults(spec, results)
		col = metrics.NewCollector(run.Result.SystemSize)
		if !cfg.SkipFST {
			run.FST = make(map[job.ID]int64)
		}
		if cfg.SLO.NumUsers() > 0 {
			tr = slo.NewTracker(cfg.SLO)
		}
		for _, p := range l.parts {
			col.Merge(p.col)
			if p.fst != nil {
				maps.Copy(run.FST, p.fst.Table())
			}
			if tr != nil {
				tr.Merge(p.slo.Tracker())
			}
		}
	}
	if tr != nil {
		run.SLO = tr.Summary()
	}
	run.Summary = metrics.Summarize(run.Result, run.FST, col)
	run.Summary.Policy = spec.String()
	// Per-queue report rows. A flat run ran one scheduler but still groups
	// users by their queue tags, so attainment and delay read out per
	// tagged queue; a topology run has one row per declared leaf, fed by
	// the users routed there.
	var paths []string
	queueOf := cfg.Placement.Queue
	if cfg.Topology == nil {
		paths = cfg.Placement.QueuePaths()
	} else {
		for _, q := range cfg.Topology.Leaves() {
			paths = append(paths, q.Path)
		}
		queueOf = func(user int) (string, bool) {
			pl, ok := l.place[user]
			return pl.queue, ok && pl.queue != ""
		}
	}
	if len(paths) > 0 {
		var perUser []slo.UserStats
		if tr != nil {
			perUser = tr.PerUser()
		}
		run.Summary.Queues = queueSummaries(paths, queueOf, run.Result.Records, perUser)
	}
	if len(l.parts) > 1 {
		run.Summary.Partitions = partitionSummaries(l.parts, results, run.Result.Makespan)
	}
	return run
}

// mergeResults folds several partitions' results into one: records
// re-sorted on the global (submit, id) order, capacities, spans and event
// counts combined.
func mergeResults(spec Spec, results []*sim.Result) *sim.Result {
	merged := &sim.Result{Policy: spec.String()}
	sawSpan := false
	for _, r := range results {
		merged.SystemSize += r.SystemSize
		merged.Records = append(merged.Records, r.Records...)
		merged.Events += r.Events
		if len(r.Records) > 0 {
			if !sawSpan || r.FirstStart < merged.FirstStart {
				merged.FirstStart = r.FirstStart
			}
			if !sawSpan || r.LastCompletion > merged.LastCompletion {
				merged.LastCompletion = r.LastCompletion
			}
			sawSpan = true
		}
	}
	slices.SortFunc(merged.Records, func(a, b *sim.Record) int { // ids are unique, so the order is total
		return cmp.Or(cmp.Compare(a.Job.Submit, b.Job.Submit), cmp.Compare(a.Job.ID, b.Job.ID))
	})
	if sawSpan {
		merged.Makespan = merged.LastCompletion - merged.FirstStart
	}
	return merged
}

// queueSummaries groups records into per-queue report rows. queueOf maps a
// user to its queue path; unmapped users contribute to no row. perUser may
// be nil (no SLO assignment).
func queueSummaries(paths []string, queueOf func(user int) (string, bool), records []*sim.Record, perUser []slo.UserStats) []metrics.QueueSummary {
	rows := make([]metrics.QueueSummary, len(paths))
	idx := make(map[string]int, len(paths))
	for i, p := range paths {
		rows[i].Path = p
		idx[p] = i
	}
	rowOf := func(user int) *metrics.QueueSummary {
		if q, ok := queueOf(user); ok {
			if i, declared := idx[q]; declared {
				return &rows[i]
			}
		}
		return nil
	}
	seen := make(map[int]bool, 64)
	for _, r := range records {
		if row := rowOf(r.Job.User); row != nil {
			if !seen[r.Job.User] {
				seen[r.Job.User] = true
				row.Users++
			}
			row.Jobs++
			row.AvgWait += float64(r.Wait()) // a sum until the division below
			row.AvgTurnaround += float64(r.Turnaround())
		}
	}
	for i := range rows {
		if n := float64(rows[i].Jobs); n > 0 {
			rows[i].AvgWait /= n
			rows[i].AvgTurnaround /= n
		}
	}
	for _, u := range perUser {
		if row := rowOf(u.User); row != nil {
			row.SLOJobs += u.Jobs
			row.SLOAttained += u.Attained
		}
	}
	return rows
}

// partitionSummaries builds the per-partition report rows. Utilization is
// partition-local work over the merged makespan, so every row shares the
// run's time denominator.
func partitionSummaries(parts []*partition, results []*sim.Result, makespan int64) []metrics.PartitionSummary {
	rows := make([]metrics.PartitionSummary, len(parts))
	for i, p := range parts {
		row := metrics.PartitionSummary{Name: p.Name, Nodes: p.Nodes, Jobs: len(results[i].Records)}
		var usedProcSec float64
		for _, rec := range results[i].Records {
			row.AvgWait += float64(rec.Wait()) // a sum until the division below
			row.AvgTurnaround += float64(rec.Turnaround())
			usedProcSec += float64(rec.Job.Nodes) * float64(rec.Complete-rec.Start)
		}
		if n := float64(row.Jobs); n > 0 {
			row.AvgWait /= n
			row.AvgTurnaround /= n
		}
		if makespan > 0 && p.Nodes > 0 {
			row.Utilization = usedProcSec / (float64(makespan) * float64(p.Nodes))
		}
		rows[i] = row
	}
	return rows
}
