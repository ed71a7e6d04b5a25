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
	// over them (see package topology). A nil Topology is the paper's flat
	// machine, run as the zero topology's one default partition of
	// SystemSize nodes (see Execute). Read-only, shareable.
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

// Execute runs one spec over the workload and assembles the summary. Every
// run takes one path: route splits the machine into partitions and the
// workload across them, build wires each partition's event loop,
// sim.RunPartitions runs them, and merge folds their results — the
// identity for one partition. A nil Topology is one default partition
// carrying everything; it differs from a declared topology only in
// checking the spec in the Flat composition context rather than Cell, in
// allowing the equality observer, and in reading placement tags as report
// groups rather than routes.
func Execute(cfg StudyConfig, spec Spec, workload []*job.Job) (*Run, error) {
	if cfg.SystemSize <= 0 {
		cfg.SystemSize = 1000
	}
	if cfg.Topology != nil && cfg.Equality {
		return nil, fmt.Errorf("core: the resource-equality observer is not supported with a topology (it models one flat machine)")
	}
	if err := cfg.Topology.Admit(spec); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	l, err := route(cfg, spec, workload)
	if err != nil {
		return nil, err
	}
	runs := make([]sim.PartitionRun, len(l.parts))
	for i, p := range l.parts {
		if runs[i], err = l.build(p, cfg, spec); err != nil {
			return nil, err
		}
	}
	results, err := sim.RunPartitions(cfg.PartitionParallel, runs)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", spec.String(), err)
	}
	return l.merge(cfg, spec, results), nil
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
