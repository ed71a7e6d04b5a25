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
// This package is the public API: type aliases and constructors re-exported
// from the internal packages, so downstream code needs a single import.
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
	"io"

	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/fairness"
	"fairsched/internal/fairshare"
	"fairsched/internal/hypothesis"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
	"fairsched/internal/scenario"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/slo"
	"fairsched/internal/sweep"
	"fairsched/internal/swf"
	"fairsched/internal/topology"
	"fairsched/internal/tracecache"
	"fairsched/internal/workload"
)

// Core model types.
type (
	// Job is a batch job submission (the paper's 2-D rectangle).
	Job = job.Job
	// JobID identifies a job within a workload.
	JobID = job.ID
	// Record is the outcome of one job in a simulation run.
	Record = sim.Record
	// Result is a complete simulation outcome.
	Result = sim.Result
	// Summary is the per-policy evaluation (every Figures 8-19 number).
	Summary = metrics.Summary
)

// Simulation and policy types.
type (
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
	// BaseObserver is a no-op Observer for embedding.
	BaseObserver = sim.BaseObserver
	// RunningJob is a started, uncompleted job.
	RunningJob = sim.RunningJob
	// SplitMode selects how maximum-runtime segments are submitted.
	SplitMode = sim.SplitMode
	// KillPolicy selects wall-clock-limit kill behaviour.
	KillPolicy = sim.KillPolicy
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
	// FairshareConfig parameterizes the decaying-usage priority.
	FairshareConfig = fairshare.Config
	// HybridFST is the paper's fairness engine (attach as an Observer).
	HybridFST = fairness.HybridFST
	// ExperimentResults holds a full nine-policy sweep.
	ExperimentResults = experiments.Results
)

// Split modes and kill policies, re-exported.
const (
	SplitUpfront   = sim.SplitUpfront
	SplitStaggered = sim.SplitStaggered
	SplitChained   = sim.SplitChained
	KillNever      = sim.KillNever
	KillWhenNeeded = sim.KillWhenNeeded
	KillAlways     = sim.KillAlways
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

// PolicyNames lists every registered policy name (ad-hoc chains and
// "depth<n>" names also resolve through PolicyByName).
func PolicyNames() []string { return core.SpecKeys() }

// PolicyBuiltin is a registered named policy spec with its description.
type PolicyBuiltin = sched.Builtin

// BuiltinPolicies returns the named-policy registry in listing order: every
// entry names a point in the (order × backfill × starvation) design space,
// with Spec.Canonical() as its expansion in the spec grammar.
func BuiltinPolicies() []PolicyBuiltin { return sched.Builtins() }

// NewPolicy assembles the runnable composed policy for a spec.
func NewPolicy(spec PolicySpec) (Policy, error) { return sched.New(spec) }

// AllPolicies returns the paper's nine configurations, baseline first.
func AllPolicies() []PolicySpec { return core.AllSpecs() }

// MinorPolicies returns the five "minor changes" configurations.
func MinorPolicies() []PolicySpec { return core.MinorSpecs() }

// Run executes one policy over a workload with the hybrid-FST fairness
// engine and metrics collection attached.
func Run(cfg StudyConfig, spec PolicySpec, jobs []*Job) (*StudyRun, error) {
	return core.Execute(cfg, spec, jobs)
}

// RunAllParallel executes a set of policies over one workload on at most
// parallel workers (<= 0: one per CPU; 1: serially). Results come back in
// spec order; a failed run never discards the others — the returned error
// aggregates every casualty (see SweepErrors), and the failed runs' slots
// in the returned slice are nil. On a non-nil error, check each slot before
// use.
func RunAllParallel(cfg StudyConfig, specs []PolicySpec, jobs []*Job, parallel int) ([]*StudyRun, error) {
	return sweep.Map(parallel, specs,
		func(s PolicySpec) string { return s.Key },
		func(_ int, s PolicySpec) (*StudyRun, error) { return core.Execute(cfg, s, jobs) })
}

// SweepErrors aggregates the per-run failures of a parallel sweep; each
// entry is a SweepRunError naming the run that failed.
type SweepErrors = sweep.Errors

// SweepRunError is one captured per-run failure inside a SweepErrors.
type SweepRunError = sweep.RunError

// RunExperiments executes the full nine-policy sweep, from which every
// table and figure of the paper's evaluation can be rendered, on one worker
// per CPU. The summaries are byte-identical at every worker count.
func RunExperiments(cfg StudyConfig, jobs []*Job) (*ExperimentResults, error) {
	return experiments.RunOn(cfg, jobs, 0)
}

// WriteReport renders a complete experiment sweep (tables, figures,
// paper-vs-measured, claim checklist) to w.
func WriteReport(w io.Writer, res *ExperimentResults) {
	experiments.WriteReport(w, res, 0)
}

// NewSimulator builds a bare simulator for custom policies and observers.
func NewSimulator(cfg SimConfig, pol Policy, observers ...Observer) *Simulator {
	return sim.New(cfg, pol, observers...)
}

// NewHybridFST builds the paper's fairness engine; attach it to a
// simulator as an observer, then read the fair start times back.
func NewHybridFST() *HybridFST { return fairness.NewHybridFST() }

// UserSummary aggregates one user's jobs in a run.
type UserSummary = metrics.UserSummary

// ByUser aggregates a run per user (jobs, processor-seconds, waits).
func ByUser(res *Result) []UserSummary { return metrics.ByUser(res) }

// TurnaroundStdDev and the Jain indices are the fairness measures the
// paper's §4 reviews before introducing the hybrid FST metric.
func TurnaroundStdDev(res *Result) float64 { return metrics.TurnaroundStdDev(res) }

// JainIndexOfUserService applies Jain, Chiu and Hawe's fairness index to
// the processor-seconds delivered per user.
func JainIndexOfUserService(res *Result) float64 { return metrics.JainIndexOfUserService(res) }

// ReadSWF streams a Standard Workload Format trace into jobs, returning the
// jobs in trace order and the declared system size: MaxNodes, else
// MaxProcs (0 when the header declares neither). Cancelled records
// (status 5) are dropped; see ReadSWFWith to keep them.
func ReadSWF(r io.Reader) ([]*Job, int, error) {
	return ReadSWFWith(r, SWFConvertOptions{})
}

// ReadSWFWith is ReadSWF with explicit record-conversion options.
func ReadSWFWith(r io.Reader, opts SWFConvertOptions) ([]*Job, int, error) {
	jobs, h, err := swf.ReadJobs(r, opts)
	if err != nil {
		return nil, 0, err
	}
	return jobs, h.SystemSize(), nil
}

// Streaming SWF ingestion: a Scanner yields one record at a time from any
// io.Reader in constant memory, so archive-scale traces never need a whole
// Trace in RAM (see also TraceSource, which streams a file into a campaign).
type (
	// SWFScanner streams SWF records (swf.Scanner).
	SWFScanner = swf.Scanner
	// SWFRecord is one raw 18-field SWF line.
	SWFRecord = swf.Record
	// SWFConvertOptions tunes SWF record-to-job conversion.
	SWFConvertOptions = swf.ConvertOptions
)

// NewSWFScanner wraps r for streaming SWF reads.
func NewSWFScanner(r io.Reader) *SWFScanner { return swf.NewScanner(r) }

// ConvertSWFRecord turns one streamed record into a job (ok is false for
// records the conversion drops: cancelled, or no usable node count).
func ConvertSWFRecord(rec SWFRecord, opts SWFConvertOptions) (*Job, bool) {
	return swf.Convert(rec, opts)
}

// Scenario engine: named, deterministic workload transformations and the
// (trace × scenario × policy × seed) campaign matrix that sweeps them.
type (
	// Scenario is a named pipeline of workload transforms.
	Scenario = scenario.Scenario
	// ScenarioTransform is one deterministic workload rewrite.
	ScenarioTransform = scenario.Transform
	// ScenarioSource is a workload a campaign loads on demand.
	ScenarioSource = scenario.Source
	// Campaign is the full (trace × scenario × seed × policy) matrix.
	Campaign = sweep.Campaign
	// CampaignCell is one completed matrix cell with full run detail.
	CampaignCell = sweep.Cell
	// CampaignCellSummary is the memory-light record of a finished cell.
	CampaignCellSummary = sweep.CellSummary
)

// BuiltinScenarios returns the named scenarios (baseline, load-scaled,
// window-sliced, estimate-perturbed, ...).
func BuiltinScenarios() []Scenario { return scenario.Builtins() }

// ScenarioNames lists the builtin scenario names.
func ScenarioNames() []string { return scenario.Names() }

// ParseScenario resolves a builtin name or an ad-hoc transform chain such
// as "load=1.5+perturb=3" (see the scenario package for the grammar).
func ParseScenario(spec string) (Scenario, error) { return scenario.Parse(spec) }

// TraceSource streams an SWF file into a campaign via the scanner (the file
// is re-read, record by record, each time a cell needs it).
func TraceSource(path string) ScenarioSource { return scenario.TraceFile(path) }

// SyntheticSource generates the calibrated CPlant/Ross workload per cell,
// with the campaign seed driving generation.
func SyntheticSource(cfg WorkloadConfig) ScenarioSource { return scenario.Synthetic(cfg) }

// JobsSource wraps an in-memory workload as a campaign source.
func JobsSource(name string, jobs []*Job, systemSize int) ScenarioSource {
	return scenario.Jobs(name, jobs, systemSize)
}

// Trace-set manifests and the binary trace cache: a manifest names a
// campaign's traces (paths, checksum pins, header overrides), and the cache
// stores each trace's converted jobs in a compact columnar image that loads
// with near-zero allocation — archive-scale campaigns parse each SWF file
// once, ever.
type (
	// TraceManifest is a parsed trace-set manifest (traces.toml).
	TraceManifest = tracecache.Manifest
	// TraceManifestEntry is one named trace in a manifest.
	TraceManifestEntry = tracecache.ManifestEntry
	// TraceCacheMeta identifies a cache image: source checksum, conversion
	// fingerprint, system size and trace start time.
	TraceCacheMeta = tracecache.Meta
)

// LoadTraceManifest parses a manifest file (see the tracecache package for
// the grammar).
func LoadTraceManifest(path string) (*TraceManifest, error) {
	return tracecache.LoadManifest(path)
}

// ManifestSources turns manifest entries into campaign sources. Each trace
// is materialized at most once per process and the job slice is shared
// across every cell that reads it; cacheDir == "" streams the SWF instead
// of touching the binary cache.
func ManifestSources(m *TraceManifest, entries []TraceManifestEntry, cacheDir string) []ScenarioSource {
	return scenario.ManifestSources(m, entries, cacheDir)
}

// EnsureTraceCache returns a trace's converted jobs, serving the binary
// cache when a valid image exists and (re)building it otherwise. hit
// reports a warm load. A zero expectedSum skips the source-checksum pin.
func EnsureTraceCache(cacheDir, tracePath string, opts SWFConvertOptions, expectedSum [32]byte) (jobs []*Job, meta TraceCacheMeta, hit bool, err error) {
	return tracecache.Ensure(cacheDir, tracePath, opts, expectedSum)
}

// RenderCampaign writes a campaign's cell summaries as aligned tables; the
// output is byte-identical at every parallelism.
func RenderCampaign(w io.Writer, cells []*CampaignCellSummary) {
	experiments.RenderCampaign(w, cells)
}

// Per-user SLO subsystem: scenario transforms tag users with wait-time and
// slowdown targets, an online observer accrues attainment as the
// simulation runs (consuming the hybrid-FST engine's fair start times to
// split breaches into policy-caused and infeasible), and campaign reports
// carry per-user-class attainment tables.
type (
	// SLOTarget is one user's objectives (max wait seconds, max bounded
	// slowdown; zero fields mean no target of that kind).
	SLOTarget = slo.Target
	// SLOAssignment is an immutable user -> target mapping for one
	// workload (built by scenario SLO transforms, or slo.Builder).
	SLOAssignment = slo.Assignment
	// SLOBuilder accumulates an SLOAssignment programmatically.
	SLOBuilder = slo.Builder
	// SLOSummary is the per-class attainment report of one run.
	SLOSummary = slo.Summary
	// SLOClassStats is one class row of an SLOSummary.
	SLOClassStats = slo.ClassStats
	// SLOUserStats is one user's accrued outcomes.
	SLOUserStats = slo.UserStats
	// SLOObserver accrues per-user attainment online; attach it to a
	// simulator alongside a HybridFST.
	SLOObserver = fairness.SLOObserver
	// SLOTransform is the scenario transform tagging users with targets.
	SLOTransform = scenario.SLOTag
)

// NewSLOBuilder returns an empty SLO assignment builder.
func NewSLOBuilder() *SLOBuilder { return slo.NewBuilder() }

// NewSLOObserver builds the online attainment observer over an assignment;
// fst may be nil (attainment is still tracked, the unfair/infeasible
// breach split stays zero).
func NewSLOObserver(asg *SLOAssignment, fst *HybridFST) *SLOObserver {
	return fairness.NewSLOObserver(asg, fst)
}

// ParseSLO parses an SLO tagging spec — the slo= scenario-grammar value,
// e.g. "p50:2h,p90:24h,default:96h" or "p50:2h,p50:6x,user7:30m" — into a
// scenario transform. Quantile bands rank users by total
// processor-seconds; durations are wait targets, "<f>x" slowdown targets.
func ParseSLO(spec string) (ScenarioTransform, error) {
	return scenario.ParseTransform("slo=" + spec)
}

// SLOFromRecords is the post-run reference computation: replays finished
// records through a fresh tracker (the online observer is differentially
// tested equal to it). fst may be nil.
func SLOFromRecords(asg *SLOAssignment, records []*Record, fst map[JobID]int64) *SLOSummary {
	return slo.FromRecords(asg, records, fst).Summary()
}

// Hypothesis harness: the paper's claims (and any ad-hoc claim) as
// declarative, falsifiable specs evaluated over a campaign, with
// deterministic FINDINGS reports. The paper's 16 registered claims live in
// internal/experiments and are available via cmd/hypotheses.
type (
	// HypothesisSpec is one claim: terms over (policy × scenario × metric)
	// configurations, seeds, a quorum and a confidence tier.
	HypothesisSpec = hypothesis.Spec
	// HypothesisOutcome is one claim's per-seed results and verdict.
	HypothesisOutcome = hypothesis.Outcome
	// HypothesisEvaluation is a claim batch evaluated as one campaign.
	HypothesisEvaluation = hypothesis.Evaluation
	// HypothesisOptions configures the campaign a claim batch expands into.
	HypothesisOptions = hypothesis.CampaignOptions
)

// ParseHypothesis parses one claim in the grammar ("claim id: a < b on
// metric, seeds 42..51"); errors carry byte positions.
func ParseHypothesis(in string) (HypothesisSpec, error) { return hypothesis.Parse(in) }

// RunHypotheses runs the (trace, scenario, policy) triples the claims name
// and evaluates them; the result (and any report rendered from it) is
// byte-identical at every parallelism setting.
func RunHypotheses(specs []HypothesisSpec, opt HypothesisOptions) (*HypothesisEvaluation, error) {
	return hypothesis.RunCampaign(specs, opt)
}

// RenderFindings writes the per-claim verdicts with per-seed evidence.
func RenderFindings(w io.Writer, e *HypothesisEvaluation) { hypothesis.RenderFindings(w, e) }

// Partitions and queue trees: a topology splits the machine into named
// partitions (each with its own node capacity and event loop) and declares a
// hierarchical queue tree (org → group → user) with per-leaf policy specs and
// guaranteed/capped shares; scenario queue=/partition= transforms route users
// into it. Set StudyConfig.Topology to run on one. A single-partition,
// single-root-queue topology reproduces the flat run byte-identically.
type (
	// Topology is the machine layout: partitions plus the queue tree.
	Topology = topology.Topology
	// TopologyPartition is one named machine group with its own nodes.
	TopologyPartition = topology.Partition
	// TopologyQueue is one queue-tree node (leaf nodes carry a policy).
	TopologyQueue = topology.QueueNode
	// UserPlacement maps users to queue-tree leaves and partitions (built
	// by scenario queue=/partition= transforms, or a PlacementBuilder).
	UserPlacement = topology.Placement
	// PlacementBuilder accumulates a UserPlacement programmatically.
	PlacementBuilder = topology.PlacementBuilder
)

// ParseTopology parses a topology spec in the queue grammar, e.g.
// "part=fast:64,part=slow:64,queue=org/a:part=fast:guar=2:order=fairshare+bf=easy,queue=org/b:part=slow:sjf";
// errors carry byte positions and each error names the offending clause.
func ParseTopology(spec string) (*Topology, error) { return topology.Parse(spec) }

// FairshareEpochFor converts a trace's Unix start time into the
// trace-relative fairshare epoch for StudyConfig.FairshareEpoch /
// SimConfig.FairshareEpoch (0 interval: the 24h default).
func FairshareEpochFor(unixStart, interval int64) int64 {
	return fairshare.EpochFor(unixStart, interval)
}

// WriteSWF writes jobs as a Standard Workload Format trace.
func WriteSWF(w io.Writer, jobs []*Job, systemSize int) error {
	return swf.Write(w, swf.FromJobs(jobs, swf.Header{
		Version:  2,
		MaxNodes: systemSize,
		MaxProcs: systemSize,
	}))
}
