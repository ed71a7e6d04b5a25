// Package core is the case study itself: it names the paper's nine
// scheduling configurations (§5.5), wires a policy, the hybrid-FST fairness
// engine and the metrics collector into one simulation, and produces the
// per-policy Summary that every figure in the evaluation reads from.
//
// Policies are composed from orthogonal components (package sched): a Spec
// is pure data naming a point in the (order × backfill × starvation) design
// space, resolved from the named registry or the spec grammar; the paper's
// nine configurations are registry entries whose composed implementations
// reproduce the original one-off schedulers byte-for-byte (DESIGN.md §9).
package core

import (
	"fmt"

	"fairsched/internal/fairness"
	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/slo"
	"fairsched/internal/topology"
)

// Spec is one named scheduling configuration: an alias of sched.Spec, so
// the study, the sweeps and the campaigns all address policies through the
// same component grammar and registry.
type Spec = sched.Spec

// MinorSpecs are the five policies of the "minor changes" comparison
// (Figures 8-13), baseline first.
func MinorSpecs() []Spec {
	return specsByKey(
		"cplant24.nomax.all",
		"cplant24.nomax.fair",
		"cplant72.nomax.all",
		"cplant24.72max.all",
		"cplant72.72max.fair",
	)
}

// ConservativeSpecs are the four conservative configurations (§5.5 items
// 5-8).
func ConservativeSpecs() []Spec {
	return specsByKey("cons.nomax", "consdyn.nomax", "cons.72max", "consdyn.72max")
}

// AllSpecs are all nine policies of Figures 14-19, baseline first.
func AllSpecs() []Spec {
	return append(MinorSpecs(), ConservativeSpecs()...)
}

func specsByKey(keys ...string) []Spec {
	out := make([]Spec, 0, len(keys))
	for _, k := range keys {
		s, ok := sched.Lookup(k)
		if !ok {
			panic(fmt.Sprintf("core: registry lost policy %q", k))
		}
		out = append(out, s)
	}
	return out
}

// SpecByKey resolves a policy: a registered name from the sched registry
// (the paper's "cplant24.nomax.all" style names, the reference baselines,
// any "depth<N>") or an ad-hoc component chain such as
// "order=fairshare+bf=easy+starve=24h.nonheavy" (see sched.ParseSpec).
func SpecByKey(key string) (Spec, error) {
	return sched.ParseSpec(key)
}

// SpecKeys lists every registered policy name. Ad-hoc component chains and
// "depth<n>" names (n >= 1) also resolve through SpecByKey; the list shows
// the registry entries.
func SpecKeys() []string {
	return sched.Names()
}

// StudyConfig parameterizes a run.
type StudyConfig struct {
	// SystemSize is the cluster size (default 1000, matching the
	// calibrated synthetic workload).
	SystemSize int
	// Fairshare configures the priority tracker (default: decay 0.5/24h).
	Fairshare fairshare.Config
	// FairshareEpoch aligns decay boundaries to the trace's wall clock
	// (fairshare.EpochFor(header.UnixStartTime, interval) for an SWF
	// trace); 0 aligns them to the trace origin.
	FairshareEpoch int64
	// Kill selects wall-clock-limit behaviour (default KillNever).
	Kill sim.KillPolicy
	// Split selects how max-runtime segments are submitted (default
	// SplitUpfront).
	Split sim.SplitMode
	// Validate enables simulator invariant checks.
	Validate bool
	// SkipFST disables the hybrid-FST engine (faster, no fairness metrics).
	SkipFST bool
	// Equality additionally runs the resource-equality observer.
	Equality bool
	// SLO, when non-nil, attaches the online per-user SLO observer over
	// this assignment (campaigns derive it from the cell's scenario via
	// Scenario.SLOAssignment). The assignment is read-only and may be
	// shared across concurrent runs.
	SLO *slo.Assignment
	// Topology, when non-nil, partitions the machine into named groups —
	// each with its own event loop — and hangs a hierarchical queue tree
	// over them (see package topology). A nil Topology is the flat
	// pre-partition machine; a single-partition single-root-queue topology
	// reproduces it byte-identically (the flat-equivalence suite pins
	// this). The topology is read-only and may be shared across runs.
	Topology *topology.Topology
	// Placement routes users to queues/partitions (campaigns derive it
	// from the cell's scenario via Scenario.Placement). With a nil
	// Topology, queue tags still group per-queue report rows; partition
	// tags are ignored. Read-only, shareable.
	Placement *topology.Placement
	// PartitionParallel bounds how many partition event loops run
	// concurrently within one Execute (default 1, serial). Results are
	// byte-identical at every width.
	PartitionParallel int
}

// Run is the outcome of one policy over one workload.
type Run struct {
	Spec     Spec
	Result   *sim.Result
	Summary  *metrics.Summary
	FST      map[job.ID]int64
	Equality *fairness.Equality
	// SLO is the per-user-class attainment report (nil unless
	// StudyConfig.SLO supplied an assignment).
	SLO *slo.Summary
}

// Execute runs one spec over the workload and assembles the summary. With
// a Topology configured, the run shards into per-partition event loops and
// merges (see executeTopology); otherwise the flat single-loop path runs.
func Execute(cfg StudyConfig, spec Spec, workload []*job.Job) (*Run, error) {
	if cfg.SystemSize <= 0 {
		cfg.SystemSize = 1000
	}
	if cfg.Topology != nil {
		return executeTopology(cfg, spec, workload)
	}
	pol, err := sched.New(spec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	simCfg := sim.Config{
		SystemSize:     cfg.SystemSize,
		Fairshare:      cfg.Fairshare,
		FairshareEpoch: cfg.FairshareEpoch,
		MaxRuntime:     spec.MaxRuntime,
		Split:          cfg.Split,
		Kill:           cfg.Kill,
		Validate:       cfg.Validate,
		// Only preemptive specs pay the preemption path (per-job workload
		// clones, remainder requeues); everything else runs the byte-stable
		// classic path.
		Preemptable: spec.PreemptTrigger != "",
	}
	col := metrics.NewCollector(cfg.SystemSize)
	observers := []sim.Observer{col}
	var fst *fairness.HybridFST
	if !cfg.SkipFST {
		fst = fairness.NewHybridFST()
		observers = append(observers, fst)
	}
	var eq *fairness.Equality
	if cfg.Equality {
		eq = fairness.NewEquality(cfg.SystemSize)
		observers = append(observers, eq)
	}
	var sloObs *fairness.SLOObserver
	if cfg.SLO.NumUsers() > 0 {
		// The observer reads the engine's fair start times (recorded at
		// arrival) to split breaches into policy-caused and infeasible;
		// with SkipFST it still tracks attainment, unclassified.
		sloObs = fairness.NewSLOObserver(cfg.SLO, fst)
		if cfg.Split == sim.SplitChained || simCfg.Preemptable {
			// Chained splits — and preemption, which resubmits a victim's
			// remainder as a chained segment — model one logical job as a
			// checkpoint chain: judge its slowdown once, at the last
			// segment's completion, against the original submit
			// (DESIGN.md §11, §16).
			sloObs.SetChained(true)
		}
		observers = append(observers, sloObs)
		// Deadline-aware components (order=edf, preempt=deadline.*) read
		// the run's SLO signals: the assignment supplies per-user
		// deadlines, the online observer the breach-risk promotion. With
		// no assignment the context stays unset — the edf order degrades
		// to FCFS and the deadline trigger never fires.
		pol.SetSLOContext(cfg.SLO, sloObs)
	}
	s := sim.New(simCfg, pol, observers...)
	res, err := s.Run(workload)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", spec.String(), err)
	}
	run := &Run{Spec: spec, Result: res, Equality: eq}
	if fst != nil {
		run.FST = fst.Table()
	}
	if sloObs != nil {
		run.SLO = sloObs.Summary()
	}
	run.Summary = metrics.Summarize(res, run.FST, col)
	run.Summary.Policy = spec.String()
	if paths := cfg.Placement.QueuePaths(); len(paths) > 0 {
		// Queue tags without a topology still group report rows: the flat
		// machine ran one scheduler, but attainment and delay can be read
		// out per tagged queue (the per-queue metric keys resolve against
		// these rows).
		var perUser []slo.UserStats
		if sloObs != nil {
			perUser = sloObs.PerUser()
		}
		run.Summary.Queues = queueSummaries(paths, func(user int) (string, bool) {
			return cfg.Placement.Queue(user)
		}, res.Records, perUser)
	}
	return run, nil
}

// Starts is a fairness.StartsFunc over this study configuration and spec:
// it re-runs the policy on an arbitrary workload and reports start times.
// It feeds the Sabin no-later-arrivals FST.
func Starts(cfg StudyConfig, spec Spec) func(workload []*job.Job) (map[job.ID]int64, error) {
	return func(workload []*job.Job) (map[job.ID]int64, error) {
		runCfg := cfg
		runCfg.SkipFST = true
		runCfg.Equality = false
		runCfg.SLO = nil
		r, err := Execute(runCfg, spec, workload)
		if err != nil {
			return nil, err
		}
		starts := make(map[job.ID]int64, len(r.Result.Records))
		for _, rec := range r.Result.Records {
			starts[rec.Job.ID] = rec.Start
		}
		return starts, nil
	}
}
