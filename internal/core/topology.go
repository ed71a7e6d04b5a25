package core

import (
	"fmt"
	"sort"

	"fairsched/internal/fairness"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/slo"
	"fairsched/internal/topology"
)

// executeTopology is Execute's partitioned path: one independent event loop
// per partition, each running a MultiQueue over that partition's slice of
// the queue tree, merged afterwards into one Run. Determinism contract:
// every partition is a fully deterministic simulation over a disjoint
// workload slice and a disjoint split-segment id range, and the merge
// (record sort, collector/tracker folds) happens in fixed declaration
// order, so the result is byte-identical at every PartitionParallel width —
// and, for a single-partition single-root-queue topology, byte-identical
// to the flat path.
func executeTopology(cfg StudyConfig, spec Spec, workload []*job.Job) (*Run, error) {
	if cfg.Equality {
		return nil, fmt.Errorf("core: the resource-equality observer is not supported with a topology (it models one flat machine)")
	}
	topo := cfg.Topology
	if err := topo.Admit(spec); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	parts := topo.EffectivePartitions(cfg.SystemSize)
	partIdx := make(map[string]int, len(parts))
	totalNodes := 0
	for i, p := range parts {
		partIdx[p.Name] = i
		totalNodes += p.Nodes
	}

	// Per-partition queue configs. A partition with no declared queues gets
	// one implicit root queue running the cell's policy (path "", no report
	// row) — the flat machine, per partition. Declared leaves without a
	// policy inherit the cell's spec.
	inherited := spec
	leavesByPart := make([][]topology.QueueNode, len(parts))
	cfgsByPart := make([][]sched.QueueConfig, len(parts))
	leafIdx := make(map[string]int, len(topo.Queues))  // leaf path -> index in its partition
	leafPart := make(map[string]int, len(topo.Queues)) // leaf path -> partition index
	for i, p := range parts {
		leavesByPart[i] = topo.LeavesFor(p.Name)
		if len(leavesByPart[i]) == 0 {
			cfgsByPart[i] = []sched.QueueConfig{{Path: "", Spec: &inherited}}
			continue
		}
		k := 0
		for _, q := range topo.Queues {
			if topo.PartitionOf(q) != p.Name {
				continue
			}
			qc := sched.QueueConfig{Path: q.Path, Guarantee: q.Guarantee, Cap: q.Cap}
			if k < len(leavesByPart[i]) && leavesByPart[i][k].Path == q.Path {
				// This declared node is a leaf: it carries a scheduler.
				qc.Spec = q.Policy
				if qc.Spec == nil {
					qc.Spec = &inherited
				}
				leafIdx[q.Path] = k
				leafPart[q.Path] = i
				k++
			}
			cfgsByPart[i] = append(cfgsByPart[i], qc)
		}
	}

	// Route users: a queue tag names a declared leaf (implying its
	// partition); a bare partition tag lands on the partition's first leaf
	// (or implicit root); untagged users land on the default partition's
	// first leaf. Routing is per user, so checkpoint chains never span
	// partitions.
	type place struct{ part, leaf int }
	placeOf := make(map[int]place)
	queueOf := make(map[int]string) // user -> report queue path ("" = implicit root)
	resolve := func(user int) (place, error) {
		if pl, ok := placeOf[user]; ok {
			return pl, nil
		}
		pl := place{}
		if qpath, ok := cfg.Placement.Queue(user); ok {
			li, declared := leafIdx[qpath]
			if !declared {
				return pl, fmt.Errorf("core: user %d is tagged with queue %q, which is not a declared leaf of the topology", user, qpath)
			}
			pl = place{part: leafPart[qpath], leaf: li}
		} else if pname, ok := cfg.Placement.PartitionTag(user); ok {
			pi, declared := partIdx[pname]
			if !declared {
				return pl, fmt.Errorf("core: user %d is tagged with partition %q, which the topology does not declare", user, pname)
			}
			pl = place{part: pi}
		}
		placeOf[user] = pl
		if ls := leavesByPart[pl.part]; len(ls) > 0 {
			queueOf[user] = ls[pl.leaf].Path
		} else {
			queueOf[user] = ""
		}
		return pl, nil
	}
	workloads := make([][]*job.Job, len(parts))
	routes := make([]map[int]int, len(parts)) // user -> leaf index, per partition
	var globalMaxID job.ID
	for _, j := range workload {
		if j.ID > globalMaxID {
			globalMaxID = j.ID
		}
		pl, err := resolve(j.User)
		if err != nil {
			return nil, err
		}
		workloads[pl.part] = append(workloads[pl.part], j)
		if routes[pl.part] == nil {
			routes[pl.part] = make(map[int]int)
		}
		routes[pl.part][j.User] = pl.leaf
	}

	// Carve disjoint contiguous split-segment id ranges, so merged records
	// and FST tables cannot collide across partitions (and each loop's
	// dense record index stays dense).
	firstSeg := make([]job.ID, len(parts))
	next := globalMaxID + 1
	for i := range parts {
		firstSeg[i] = next
		next += job.ID(sim.SegmentIDBudget(workloads[i], spec.MaxRuntime))
	}

	runs := make([]sim.PartitionRun, len(parts))
	cols := make([]*metrics.Collector, len(parts))
	fsts := make([]*fairness.HybridFST, len(parts))
	sloObss := make([]*fairness.SLOObserver, len(parts))
	for i, p := range parts {
		route := routes[i]
		pol, err := sched.NewMultiQueue(cfgsByPart[i], func(j *job.Job) int { return route[j.User] }, cfg.Fairshare, cfg.FairshareEpoch)
		if err != nil {
			return nil, fmt.Errorf("core: partition %s: %w", p.Name, err)
		}
		cols[i] = metrics.NewCollector(p.Nodes)
		observers := []sim.Observer{cols[i]}
		if !cfg.SkipFST {
			fsts[i] = fairness.NewHybridFST()
			observers = append(observers, fsts[i])
		}
		if cfg.SLO.NumUsers() > 0 {
			sloObss[i] = fairness.NewSLOObserver(cfg.SLO, fsts[i])
			if cfg.Split == sim.SplitChained {
				sloObss[i].SetChained(true)
			}
			observers = append(observers, sloObss[i])
		}
		runs[i] = sim.PartitionRun{
			Name: p.Name,
			Config: sim.Config{
				SystemSize:     p.Nodes,
				Fairshare:      cfg.Fairshare,
				FairshareEpoch: cfg.FairshareEpoch,
				MaxRuntime:     spec.MaxRuntime,
				Split:          cfg.Split,
				Kill:           cfg.Kill,
				Validate:       cfg.Validate,
				FirstSegmentID: firstSeg[i],
			},
			Policy:    pol,
			Observers: observers,
			Workload:  workloads[i],
		}
	}
	results, err := sim.RunPartitions(cfg.PartitionParallel, runs)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", spec.String(), err)
	}

	merged := mergeResults(spec, totalNodes, results)
	run := &Run{Spec: spec, Result: merged}
	if !cfg.SkipFST {
		run.FST = make(map[job.ID]int64)
		for _, f := range fsts {
			for id, t := range f.Table() {
				run.FST[id] = t
			}
		}
	}
	col := metrics.NewCollector(totalNodes)
	for _, c := range cols {
		col.Merge(c)
	}
	var perUser []slo.UserStats
	if cfg.SLO.NumUsers() > 0 {
		tr := slo.NewTracker(cfg.SLO)
		for _, o := range sloObss {
			tr.Merge(o.Tracker())
		}
		run.SLO = tr.Summary()
		perUser = tr.PerUser()
	}
	run.Summary = metrics.Summarize(merged, run.FST, col)
	run.Summary.Policy = spec.String()

	// Per-queue rows for every declared leaf (path order); partitions with
	// only the implicit root contribute no row. Per-partition rows only
	// when the machine is actually split.
	if leaves := topo.Leaves(); len(leaves) > 0 {
		paths := make([]string, len(leaves))
		for i, q := range leaves {
			paths[i] = q.Path
		}
		run.Summary.Queues = queueSummaries(paths, func(user int) (string, bool) {
			q, ok := queueOf[user]
			return q, ok && q != ""
		}, merged.Records, perUser)
	}
	if len(parts) > 1 {
		run.Summary.Partitions = partitionSummaries(parts, results, merged.Makespan)
	}
	return run, nil
}

// mergeResults folds the per-partition results into one: records re-sorted
// on the global (submit, id) order, spans and event counts combined.
func mergeResults(spec Spec, totalNodes int, results []*sim.Result) *sim.Result {
	merged := &sim.Result{Policy: spec.String(), SystemSize: totalNodes}
	if len(results) == 1 {
		merged.Policy = results[0].Policy
	}
	sawSpan := false
	for _, r := range results {
		merged.Records = append(merged.Records, r.Records...)
		merged.Events += r.Events
		if len(r.Records) == 0 {
			continue
		}
		if !sawSpan {
			merged.FirstStart, merged.LastCompletion, sawSpan = r.FirstStart, r.LastCompletion, true
			continue
		}
		if r.FirstStart < merged.FirstStart {
			merged.FirstStart = r.FirstStart
		}
		if r.LastCompletion > merged.LastCompletion {
			merged.LastCompletion = r.LastCompletion
		}
	}
	sort.Slice(merged.Records, func(i, k int) bool {
		a, b := merged.Records[i], merged.Records[k]
		if a.Job.Submit != b.Job.Submit {
			return a.Job.Submit < b.Job.Submit
		}
		return a.Job.ID < b.Job.ID
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
	users := make(map[int]int, 64) // user -> row index (and distinct-user count)
	sumWait := make([]float64, len(paths))
	sumTAT := make([]float64, len(paths))
	for _, r := range records {
		q, ok := queueOf(r.Job.User)
		if !ok {
			continue
		}
		i, declared := idx[q]
		if !declared {
			continue
		}
		if _, seen := users[r.Job.User]; !seen {
			users[r.Job.User] = i
			rows[i].Users++
		}
		rows[i].Jobs++
		sumWait[i] += float64(r.Wait())
		sumTAT[i] += float64(r.Turnaround())
	}
	for i := range rows {
		if rows[i].Jobs > 0 {
			n := float64(rows[i].Jobs)
			rows[i].AvgWait = sumWait[i] / n
			rows[i].AvgTurnaround = sumTAT[i] / n
		}
	}
	for _, u := range perUser {
		q, ok := queueOf(u.User)
		if !ok {
			continue
		}
		if i, declared := idx[q]; declared {
			rows[i].SLOJobs += u.Jobs
			rows[i].SLOAttained += u.Attained
		}
	}
	return rows
}

// partitionSummaries builds the per-partition report rows. Utilization is
// partition-local work over the merged makespan, so every row shares the
// run's time denominator.
func partitionSummaries(parts []topology.Partition, results []*sim.Result, makespan int64) []metrics.PartitionSummary {
	rows := make([]metrics.PartitionSummary, len(parts))
	for i, p := range parts {
		r := results[i]
		row := metrics.PartitionSummary{Name: p.Name, Nodes: p.Nodes, Jobs: len(r.Records)}
		var sumWait, sumTAT, usedProcSec float64
		for _, rec := range r.Records {
			sumWait += float64(rec.Wait())
			sumTAT += float64(rec.Turnaround())
			usedProcSec += float64(rec.Job.Nodes) * float64(rec.Complete-rec.Start)
		}
		if row.Jobs > 0 {
			n := float64(row.Jobs)
			row.AvgWait = sumWait / n
			row.AvgTurnaround = sumTAT / n
		}
		if makespan > 0 && p.Nodes > 0 {
			row.Utilization = usedProcSec / (float64(makespan) * float64(p.Nodes))
		}
		rows[i] = row
	}
	return rows
}
