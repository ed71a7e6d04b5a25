// Package experiments regenerates every table and figure of the paper's
// evaluation: the workload characterization (Tables 1-2, Figures 3-7), the
// "minor changes" study (Figures 8-13) and the full nine-policy study
// (Figures 14-19). It also holds the paper's Results-section claims as
// hypothesis specs, registered for cmd/hypotheses to judge.
package experiments

import (
	"fmt"

	"fairsched/internal/core"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
	"fairsched/internal/workload"
)

// Config parameterizes a full experiment sweep.
type Config struct {
	// Workload generates the trace (zero value: the calibrated full-scale
	// synthetic CPlant/Ross trace).
	Workload workload.Config
	// Study configures the runs (zero value: calibrated defaults).
	Study core.StudyConfig
	// Parallel bounds the sweep engine's worker pool: 1 runs policies
	// serially, 0 (and negatives) use one worker per CPU. Results are
	// identical at every setting; only wall-clock time changes.
	Parallel int
}

// Results holds everything the figures are built from.
type Results struct {
	Jobs      []*job.Job
	ByKey     map[string]*metrics.Summary
	MinorKeys []string
	AllKeys   []string
}

// Run executes all nine policies over one generated workload, fanned out on
// cfg.Parallel workers.
func Run(cfg Config) (*Results, error) {
	if cfg.Workload.SystemSize <= 0 {
		cfg.Workload.SystemSize = cfg.Study.SystemSize
	}
	jobs, err := workload.Generate(cfg.Workload)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return RunOn(cfg.Study, jobs, cfg.Parallel)
}

// RunOn executes all nine policies over a supplied workload on at most
// parallel workers (<= 0: one per CPU), as a one-cell campaign. The
// summaries are identical at every parallelism.
func RunOn(study core.StudyConfig, jobs []*job.Job, parallel int) (*Results, error) {
	cells, err := sweep.Campaign{
		Sources:  []scenario.Source{scenario.Jobs("study", jobs, study.SystemSize)},
		Study:    study,
		Parallel: parallel,
	}.Run()
	if err != nil {
		return nil, err
	}
	return assemble(jobs, cells[0]), nil
}

// assemble builds a Results from one finished nine-policy cell.
func assemble(jobs []*job.Job, cell *sweep.CellSummary) *Results {
	res := &Results{
		Jobs:    jobs,
		ByKey:   make(map[string]*metrics.Summary, len(cell.Policies)),
		AllKeys: cell.Policies,
	}
	for i, key := range cell.Policies {
		res.ByKey[key] = cell.Summaries[i]
	}
	for _, s := range core.MinorSpecs() {
		res.MinorKeys = append(res.MinorKeys, s.Key)
	}
	return res
}

// Baseline returns the baseline policy's summary.
func (r *Results) Baseline() *metrics.Summary { return r.ByKey["cplant24.nomax.all"] }
