package sweep

import (
	"fmt"
	"sync"

	"fairsched/internal/core"
	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
	"fairsched/internal/scenario"
	"fairsched/internal/slo"
)

// Campaign is the full evaluation matrix: (trace × scenario × seed ×
// policy). Each (trace, scenario, seed) triple is one cell; a cell's
// workload streams in once (scenario sources load lazily, SWF files via the
// streaming scanner), the scenario's transforms apply under the cell's
// seed, every policy runs over the result, and the workload is released
// when the cell's last policy finishes — so peak memory stays bounded by
// the worker count, not the whole matrix, and the raw SWF text/records
// never materialize (a loaded cell holds just its converted job slice).
type Campaign struct {
	// Sources are the workloads (trace files, synthetic generators).
	Sources []scenario.Source
	// Scenarios are the workload variants; zero length means baseline only.
	Scenarios []scenario.Scenario
	// Seeds drive scenario randomness (and synthetic generation); zero
	// length means the single seed 0.
	Seeds []int64
	// Specs are the policies; zero length means core.AllSpecs().
	Specs []core.Spec
	// Study configures every run. SystemSize <= 0 defers to each trace's
	// declared size; FairshareEpoch 0 defers to each trace's Unix start
	// time; SLO and Placement apply to cells whose scenario contributes
	// none of its own.
	Study core.StudyConfig
	// Parallel bounds the worker pool (<= 0: one worker per CPU).
	Parallel int
}

// Cell is one completed (trace × scenario × seed) of the matrix with full
// run detail. It is only ever alive inside a RunEach callback; retaining
// Jobs or Runs from there forfeits the campaign's memory bound.
type Cell struct {
	Source   string
	Scenario string
	Seed     int64
	// SystemSize is the machine the cell's runs ran on: the sum of its
	// partitions' nodes under a topology. Epoch is the resolved fairshare
	// decay epoch.
	SystemSize int
	Epoch      int64
	Jobs       []*job.Job
	Runs       []*core.Run // spec order
}

// CellSummary is the memory-light record of a finished cell: identity plus
// per-policy summaries, with the workload and per-job records dropped.
type CellSummary struct {
	Source     string
	Scenario   string
	Seed       int64
	SystemSize int
	Jobs       int
	Policies   []string           // spec order
	Summaries  []*metrics.Summary // spec order
	// SLOs are the per-policy SLO attainment reports, spec order; nil when
	// the cell's scenario tags no users (the summaries are per-class, so a
	// cell stays memory-light even over a large user population).
	SLOs []*slo.Summary
}

// cells enumerates the matrix in deterministic input order: sources
// outermost, then scenarios, then seeds. It fails, before any cell loads,
// on a policy the study's topology cannot run (topology.Admit, the check
// core.Execute makes per run).
func (c Campaign) cells() (srcs []scenario.Source, scens []scenario.Scenario, seeds []int64, specs []core.Spec, grid [][3]int, err error) {
	srcs = c.Sources
	scens = c.Scenarios
	if len(scens) == 0 {
		scens = []scenario.Scenario{scenario.Baseline()}
	}
	seeds = c.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	specs = c.Specs
	if len(specs) == 0 {
		specs = core.AllSpecs()
	}
	for _, sp := range specs {
		if err := c.Study.Topology.Admit(sp); err != nil {
			return nil, nil, nil, nil, nil, err
		}
	}
	for si := range srcs {
		for ci := range scens {
			for di := range seeds {
				grid = append(grid, [3]int{si, ci, di})
			}
		}
	}
	return srcs, scens, seeds, specs, grid, nil
}

// RunEach executes the matrix, handing each completed cell to the callback
// and releasing it afterwards. The unit of parallelism is the cell: a
// worker loads the cell's source, runs every policy over it serially and
// hands the finished cell back on the same goroutine. Callbacks are
// serialized (no locking needed inside) but arrive in completion order, not
// matrix order — aggregate commutatively, or use Run for deterministic
// ordering. A failing load, transform or policy run fails its whole cell:
// the callback is not invoked for it, the casualty is recorded in the
// aggregated *Errors, and the other cells proceed.
func (c Campaign) RunEach(each func(Cell)) error {
	srcs, scens, seeds, specs, grid, err := c.cells()
	if err != nil {
		return err
	}
	var mu sync.Mutex
	_, err = Map(c.Parallel, grid,
		func(g [3]int) string { return cellLabel(srcs, scens, seeds, g) },
		func(_ int, g [3]int) (struct{}, error) {
			src, scen, seed := srcs[g[0]], scens[g[1]], seeds[g[2]]
			cell, err := c.runCell(src, scen, seed, specs)
			if err != nil {
				return struct{}{}, err
			}
			mu.Lock()
			defer mu.Unlock()
			each(*cell)
			return struct{}{}, nil
		})
	return err
}

// Run executes the matrix and returns one CellSummary per cell in matrix
// order (sources, then scenarios, then seeds) regardless of Parallel — the
// summaries, and any report rendered from them, are byte-identical at every
// parallelism.
//
// The unit of parallelism is one (cell, policy) task, so a sweep over few
// cells still saturates the pool. A cell's workload is loaded exactly once,
// by whichever of its tasks runs first (under a sync.Once), shared
// read-only by its sibling tasks — the simulator never mutates submitted
// jobs — and dropped when the cell's last policy finishes: peak memory is
// one workload per in-flight cell, at most the worker count plus one.
//
// A failing load, transform or policy run fails its whole cell: its slot
// is nil, the casualty is recorded in the aggregated *Errors (a failed load
// once per cell, not once per policy), and the other cells proceed. A
// policy the study's topology cannot run fails the whole campaign before
// any cell loads: Run then returns no summaries and that one error.
func (c Campaign) Run() ([]*CellSummary, error) {
	srcs, scens, seeds, specs, grid, err := c.cells()
	if err != nil {
		return nil, err
	}
	type cellState struct {
		once      sync.Once
		mu        sync.Mutex
		jobs      []*job.Job
		jobCount  int
		study     core.StudyConfig
		err       error
		remaining int
	}
	states := make([]*cellState, len(grid))
	for i := range states {
		states[i] = &cellState{remaining: len(specs)}
	}
	type task struct{ cell, spec int }
	tasks := make([]task, 0, len(grid)*len(specs))
	for ci := range grid {
		for pi := range specs {
			tasks = append(tasks, task{cell: ci, spec: pi})
		}
	}
	// A task hands back only what its CellSummary keeps: a *core.Run
	// holds its records, and through them the cell's jobs, so keeping runs
	// until the campaign ends would pin every workload it loaded.
	type kept struct {
		key        string
		summary    *metrics.Summary
		slo        *slo.Summary
		systemSize int
	}
	runs, err := Map(c.Parallel, tasks,
		func(t task) string { return cellLabel(srcs, scens, seeds, grid[t.cell]) },
		func(_ int, t task) (kept, error) {
			g, st := grid[t.cell], states[t.cell]
			st.once.Do(func() {
				st.jobs, st.study, st.err = c.loadCell(srcs[g[0]], scens[g[1]], seeds[g[2]])
				st.jobCount = len(st.jobs)
			})
			st.mu.Lock()
			jobs, loadErr := st.jobs, st.err
			st.mu.Unlock()
			var k kept
			var runErr error
			switch {
			case loadErr == nil:
				var r *core.Run
				if r, runErr = core.Execute(st.study, specs[t.spec], jobs); runErr == nil {
					k = kept{r.Spec.Key, r.Summary, r.SLO, r.Result.SystemSize}
				}
			case t.spec == 0:
				runErr = loadErr // the cell's other tasks leave their slots empty
			}
			st.mu.Lock()
			st.remaining--
			if st.remaining == 0 {
				st.jobs = nil // cell finished: release the workload share
			}
			st.mu.Unlock()
			return k, runErr
		})
	out := make([]*CellSummary, len(grid))
	for ci, g := range grid {
		cellRuns := runs[ci*len(specs) : (ci+1)*len(specs)]
		sum := &CellSummary{
			Source:    srcs[g[0]].Name,
			Scenario:  scens[g[1]].Name,
			Seed:      seeds[g[2]],
			Jobs:      states[ci].jobCount,
			Policies:  make([]string, len(cellRuns)),
			Summaries: make([]*metrics.Summary, len(cellRuns)),
		}
		complete := true
		for i, r := range cellRuns {
			if r.summary == nil {
				complete = false
				break
			}
			sum.Policies[i] = r.key
			sum.Summaries[i] = r.summary
			if r.slo != nil {
				if sum.SLOs == nil {
					sum.SLOs = make([]*slo.Summary, len(cellRuns))
				}
				sum.SLOs[i] = r.slo
			}
		}
		if complete { // any failed policy fails its whole cell
			sum.SystemSize = cellRuns[0].systemSize
			out[ci] = sum
		}
	}
	return out, err
}

// cellLabel names a cell in error messages.
func cellLabel(srcs []scenario.Source, scens []scenario.Scenario, seeds []int64, g [3]int) string {
	return fmt.Sprintf("%s × %s × seed %d", srcs[g[0]].Name, scens[g[1]].Name, seeds[g[2]])
}

// loadCell loads and transforms one cell's workload and resolves the
// simulator settings every policy run of the cell shares.
func (c Campaign) loadCell(src scenario.Source, scen scenario.Scenario, seed int64) ([]*job.Job, core.StudyConfig, error) {
	study := c.Study
	wl, err := src.Load(seed)
	if err != nil {
		return nil, study, err
	}
	jobs, err := scen.Apply(wl.Jobs, seed)
	if err != nil {
		return nil, study, err
	}
	// The scenario may tag users with SLO targets; the assignment is
	// derived from the transformed workload (so quantile bands reflect the
	// cell's actual population) and shared read-only by every policy run
	// of the cell.
	asg, err := scen.SLOAssignment(jobs)
	if err != nil {
		return nil, study, err
	}
	if asg != nil {
		study.SLO = asg
	}
	// Likewise for user placement: queue/partition tags route users on the
	// study's topology (or group per-queue report rows on a flat machine).
	placement, err := scen.Placement(jobs)
	if err != nil {
		return nil, study, err
	}
	if placement != nil {
		study.Placement = placement
	}
	study.SystemSize = scenario.SystemSize(jobs, study.SystemSize, wl.SystemSize)
	if study.FairshareEpoch == 0 && wl.FairshareEpoch != 0 {
		// Manifest-declared default epoch: a study-level setting still wins.
		study.FairshareEpoch = wl.FairshareEpoch
	}
	if study.FairshareEpoch == 0 && wl.UnixStartTime > 0 {
		// The scenario may have moved the time origin (window slicing);
		// align decay boundaries to the wall clock at the shifted origin.
		study.FairshareEpoch = fairshare.EpochFor(
			wl.UnixStartTime+scen.OriginShift(), study.Fairshare.DecayInterval)
	}
	return jobs, study, nil
}

// runCell loads, transforms and simulates one cell for RunEach. Policies
// run serially within the cell, sharing the transformed workload read-only.
func (c Campaign) runCell(src scenario.Source, scen scenario.Scenario, seed int64, specs []core.Spec) (*Cell, error) {
	jobs, study, err := c.loadCell(src, scen, seed)
	if err != nil {
		return nil, err
	}
	cell := &Cell{
		Source:   src.Name,
		Scenario: scen.Name,
		Seed:     seed,
		Epoch:    study.FairshareEpoch,
		Jobs:     jobs,
		Runs:     make([]*core.Run, len(specs)),
	}
	for i, sp := range specs {
		r, err := core.Execute(study, sp, jobs)
		if err != nil {
			return nil, err // core.Execute already names the spec
		}
		cell.Runs[i] = r
	}
	cell.SystemSize = cell.Runs[0].Result.SystemSize
	return cell, nil
}
