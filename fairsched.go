// Package fairsched reproduces "Parallel Job Scheduling Policies to Improve
// Fairness: A Case Study" (Leung, Sabin, Sadayappan; SAND2008-1310 / ICPP):
// a discrete-event parallel job scheduling simulator, the Sandia
// CPlant/Ross scheduler family (no-guarantee backfilling with a fairshare
// queue and a starvation queue; conservative backfilling with static and
// dynamic reservations; 72-hour maximum-runtime limits), the paper's hybrid
// "fairshare" fair-start-time metric, a synthetic CPlant/Ross workload
// calibrated to the paper's Tables 1-2 and Figures 3-7, and the harness
// regenerating every evaluation figure.
//
// This package is the public API: the one entry path through the study —
// generate a workload, pick a policy, run it, read the summary — plus the
// simulator contracts a custom policy or observer implements. Everything
// else (scenarios, campaigns, trace manifests, SLOs, hypotheses) is driven
// through the cmd/ tools.
//
// Quick start:
//
//	jobs, _ := fairsched.GenerateWorkload(fairsched.WorkloadConfig{Seed: 42, Scale: 0.25})
//	spec, _ := fairsched.PolicyByName("cons.72max")
//	run, _ := fairsched.Run(fairsched.StudyConfig{}, spec, jobs)
//	fmt.Printf("%.1f%% unfair, %.0fs avg miss\n",
//		run.Summary.PercentUnfair, run.Summary.AvgMissTime)
package fairsched

import (
	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/fairness"
	"fairsched/internal/job"
	"fairsched/internal/sim"
	"fairsched/internal/sweep"
	"fairsched/internal/topology"
	"fairsched/internal/workload"
)

// Core model and simulator types.
type (
	// Job is a batch job submission (the paper's 2-D rectangle).
	Job = job.Job
	// JobID identifies a job within a workload.
	JobID = job.ID
	// SimConfig parameterizes the discrete-event simulator directly.
	SimConfig = sim.Config
	// Simulator is the discrete-event cluster simulator.
	Simulator = sim.Simulator
	// Env is the interface policies use to act on the simulated system.
	Env = sim.Env
	// Policy is a scheduling policy under test; implement it to plug a
	// custom scheduler into the study (see examples/custompolicy).
	Policy = sim.Policy
	// Observer receives simulation lifecycle callbacks.
	Observer = sim.Observer
	// SplitMode selects how maximum-runtime segments are submitted.
	SplitMode = sim.SplitMode
)

// Study types.
type (
	// StudyConfig parameterizes a case-study run.
	StudyConfig = core.StudyConfig
	// PolicySpec is one named scheduling configuration (§5.5 of the paper).
	PolicySpec = core.Spec
	// StudyRun is the outcome of one policy over one workload.
	StudyRun = core.Run
	// WorkloadConfig parameterizes the synthetic CPlant/Ross generator.
	WorkloadConfig = workload.Config
	// HybridFST is the paper's fairness engine (attach as an Observer).
	HybridFST = fairness.HybridFST
	// ExperimentResults holds a full nine-policy sweep.
	ExperimentResults = experiments.Results
	// Topology is the machine layout: partitions plus the queue tree.
	Topology = topology.Topology
)

// Split modes, re-exported.
const (
	SplitUpfront   = sim.SplitUpfront
	SplitStaggered = sim.SplitStaggered
	SplitChained   = sim.SplitChained
)

// GenerateWorkload builds the synthetic CPlant/Ross trace (DESIGN.md §5).
func GenerateWorkload(cfg WorkloadConfig) ([]*Job, error) {
	return workload.Generate(cfg)
}

// PolicyByName resolves a policy: one of the paper's names
// ("cplant24.nomax.all", "cons.72max", ...), a reference baseline ("fcfs",
// "easy", "list.fairshare", "depth<N>", ...), or an ad-hoc component chain
// in the spec grammar ("order=fairshare+bf=easy+starve=24h.nonheavy").
func PolicyByName(name string) (PolicySpec, error) { return core.SpecByKey(name) }

// AllPolicies returns the paper's nine configurations, baseline first.
func AllPolicies() []PolicySpec { return core.AllSpecs() }

// Run executes one policy over a workload with the hybrid-FST fairness
// engine and metrics collection attached.
func Run(cfg StudyConfig, spec PolicySpec, jobs []*Job) (*StudyRun, error) {
	return core.Execute(cfg, spec, jobs)
}

// RunAllParallel executes a set of policies over one workload on at most
// parallel workers (<= 0: one per CPU; 1: serially). Results come back in
// spec order; a failed run never discards the others — the returned error
// names every failed run, and the failed runs' slots in the returned slice
// are nil. On a non-nil error, check each slot before use.
func RunAllParallel(cfg StudyConfig, specs []PolicySpec, jobs []*Job, parallel int) ([]*StudyRun, error) {
	return sweep.Map(parallel, specs,
		func(s PolicySpec) string { return s.Key },
		func(_ int, s PolicySpec) (*StudyRun, error) { return core.Execute(cfg, s, jobs) })
}

// RunExperiments executes the full nine-policy sweep, from which every
// table and figure of the paper's evaluation can be rendered, on one worker
// per CPU. The summaries are byte-identical at every worker count.
func RunExperiments(cfg StudyConfig, jobs []*Job) (*ExperimentResults, error) {
	return experiments.RunOn(cfg, jobs, 0)
}

// NewSimulator builds a bare simulator for custom policies and observers.
func NewSimulator(cfg SimConfig, pol Policy, observers ...Observer) *Simulator {
	return sim.New(cfg, pol, observers...)
}

// NewHybridFST builds the paper's fairness engine; attach it to a
// simulator as an observer, then read the fair start times back.
func NewHybridFST() *HybridFST { return fairness.NewHybridFST() }

// ParseTopology parses a topology spec in the queue grammar, e.g.
// "part=fast:64,part=slow:64,queue=org/a:part=fast:guar=2:order=fairshare+bf=easy,queue=org/b:part=slow:sjf";
// errors carry byte positions and each error names the offending clause.
// Set StudyConfig.Topology to run on it.
func ParseTopology(spec string) (*Topology, error) { return topology.Parse(spec) }
