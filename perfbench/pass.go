package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"fairsched/internal/experiments"
	"fairsched/internal/scenario"
	"fairsched/internal/slo"
	"fairsched/internal/sweep"
)

// bench is a plan with its inputs built.
type bench struct {
	plan
	inputs      map[int64]*scenario.Workload
	jobsPerPass int
	index       map[cellID]int // matrix position of each cell
}

// cellID names a cell by what sweep.Cell reports of it.
type cellID struct {
	scenario string
	seed     int64
}

func newBench(p plan, inputs map[int64]*scenario.Workload, jobsPerPass int) *bench {
	b := &bench{plan: p, inputs: inputs, jobsPerPass: jobsPerPass, index: map[cellID]int{}}
	for i, c := range p.cells() {
		b.index[cellID{c.scen.Name, c.seed}] = i
	}
	return b
}

func (b *bench) runsPerPass() int { return len(b.cells()) * len(b.specs) }

// pass is one execution of a workload's whole matrix plus its report.
type pass struct {
	wall        time.Duration
	runs        int
	failed      int
	digest      string
	preemptions int
	render      time.Duration
	// busy sums the cells' durations; cellMax is the longest cell.
	busy, cellMax time.Duration
	// calib sums the time the untraced pass spent in calibrate around its
	// cells, which wall leaves out; scaledWall is wall at the reference host
	// speed (calib.go).
	calib, scaledWall time.Duration
	// ledger holds the traced pass's in-cell layer self times.
	ledger *tracer
}

// workers is the pool width a pass actually gets.
func (b *bench) workers() int {
	if n := len(b.cells()); b.parallel > n {
		return n
	}
	return b.parallel
}

// source serves the pre-generated inputs; onLoad marks a cell's start on
// the worker that runs it.
func (b *bench) source(onLoad func()) scenario.Source {
	return scenario.Source{
		Name: b.plan.source,
		Load: func(seed int64) (*scenario.Workload, error) {
			onLoad()
			wl, ok := b.inputs[seed]
			if !ok {
				return nil, fmt.Errorf("perfbench: no input for seed %d", seed)
			}
			return wl, nil
		},
	}
}

// cellSummary condenses a finished cell the way sweep.Campaign.Run does.
func cellSummary(c sweep.Cell) *sweep.CellSummary {
	sum := &sweep.CellSummary{
		Source: c.Source, Scenario: c.Scenario, Seed: c.Seed,
		SystemSize: c.SystemSize, Jobs: len(c.Jobs),
	}
	for i, r := range c.Runs {
		sum.Policies = append(sum.Policies, r.Spec.Key)
		sum.Summaries = append(sum.Summaries, r.Summary)
		if r.SLO != nil {
			if sum.SLOs == nil {
				sum.SLOs = make([]*slo.Summary, len(c.Runs))
			}
			sum.SLOs[i] = r.SLO
		}
	}
	return sum
}

// checkCell runs the output checks over a cell's runs and returns how many
// failed and how many jobs were preempted.
func checkCell(c sweep.Cell) (failed, preempted int) {
	for _, r := range c.Runs {
		if err := checkRun(c.Jobs, r.Result, c.SystemSize); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s × %s × seed %d × %s: %v\n", c.Source, c.Scenario, c.Seed, r.Spec.Key, err)
		}
		for _, rec := range r.Result.Records {
			if rec.Preempted {
				preempted++
			}
		}
	}
	return failed, preempted
}

// failedRuns counts the policy runs lost to failed cells: a failed load,
// transform or policy run (error or panic) fails its whole cell.
func (b *bench) failedRuns(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	var errs *sweep.Errors
	if errors.As(err, &errs) {
		return len(errs.Runs) * len(b.specs)
	}
	return b.runsPerPass()
}

// run executes the matrix through sweep.Campaign.RunEach, as users run it,
// and renders the report. Each worker times the calibration kernel before
// its first cell and after every cell, and a cell's host speed is the mean
// of the kernel runs on either side of it. The cell starts after the kernel,
// when the worker loads the cell's source, and ends when the campaign hands
// the finished cell back.
func (b *bench) run() pass {
	type start struct {
		at    time.Time
		calib time.Duration
	}
	p := pass{runs: b.runsPerPass()}
	var mu sync.Mutex
	starts := map[uint64]start{}
	last := map[uint64]time.Duration{} // each worker's latest kernel time
	camp := sweep.Campaign{
		Sources: []scenario.Source{b.source(func() {
			g := goid()
			mu.Lock()
			c, ok := last[g]
			mu.Unlock()
			var cost time.Duration
			if !ok {
				c, cost = calibrate()
			}
			now := time.Now()
			mu.Lock()
			p.calib += cost
			starts[g] = start{now, c}
			mu.Unlock()
		})},
		Scenarios: b.scenarios,
		Seeds:     b.seeds,
		Specs:     b.specs,
		Study:     b.study,
		Parallel:  b.parallel,
	}
	cells := make([]*sweep.CellSummary, len(b.cells()))
	var scaledBusy time.Duration
	t0 := time.Now()
	err := camp.RunEach(func(c sweep.Cell) {
		end := time.Now()
		g := goid()
		after, cost := calibrate()
		mu.Lock()
		s := starts[g]
		last[g] = after
		p.calib += cost
		mu.Unlock()
		d := end.Sub(s.at)
		p.busy += d
		scaledBusy += scaled(d, (s.calib+after)/2)
		if d > p.cellMax {
			p.cellMax = d
		}
		failed, preempted := checkCell(c)
		p.failed += failed
		p.preemptions += preempted
		cells[b.index[cellID{c.Scenario, c.Seed}]] = cellSummary(c)
	})
	p.failed += b.failedRuns(err)
	t1 := time.Now()
	var report bytes.Buffer
	experiments.RenderCampaign(&report, cells)
	p.render = time.Since(t1)
	// The kernel runs are spread over the workers, so they add calib ÷
	// workers to the wall time. The rest is scaled by the host speed the
	// cells ran at, each cell weighted by its length.
	p.wall = time.Since(t0) - p.calib/time.Duration(b.workers())
	p.scaledWall = p.wall
	if p.busy > 0 {
		p.scaledWall = time.Duration(float64(p.wall) * float64(scaledBusy) / float64(p.busy))
	}
	p.digest = digest(cells)
	return p
}

// tracedRun is run with every layer call timed. sweep.Campaign builds its
// policies inside core.Execute, out of a decorator's reach, so the traced
// pass walks the same matrix itself — sweep.Map over the cells at the same
// width, each cell transforming its pre-generated input and running its
// policies as Campaign.runCell does, through tracedExecute.
func (b *bench) tracedRun() pass {
	type cellOut struct {
		sum       *sweep.CellSummary
		t         *tracer
		wall      time.Duration
		failed    int
		preempted int
	}
	p := pass{runs: b.runsPerPass(), ledger: &tracer{}}
	grid := b.cells()
	t0 := time.Now()
	outs, err := sweep.Map(b.parallel, grid,
		func(c cell) string { return fmt.Sprintf("%s × %s × seed %d", b.plan.source, c.scen.Name, c.seed) },
		func(_ int, c cell) (cellOut, error) {
			start := time.Now()
			t := &tracer{}
			t.begin(layerApply)
			jobs, err := c.scen.Apply(b.inputs[c.seed].Jobs, c.seed)
			t.end()
			if err != nil {
				return cellOut{}, err
			}
			t.begin(layerSLOAssign)
			asg, err := c.scen.SLOAssignment(jobs)
			t.end()
			if err != nil {
				return cellOut{}, err
			}
			st := b.study
			st.SLO = asg
			sc := sweep.Cell{Source: b.plan.source, Scenario: c.scen.Name, Seed: c.seed, SystemSize: st.SystemSize, Jobs: jobs}
			for _, spec := range b.specs {
				r, err := tracedExecute(t, st, spec, jobs)
				if err != nil {
					return cellOut{}, err
				}
				sc.Runs = append(sc.Runs, r)
			}
			t.begin(layerCheck)
			failed, preempted := checkCell(sc)
			t.end()
			return cellOut{cellSummary(sc), t, time.Since(start), failed, preempted}, nil
		})
	p.failed += b.failedRuns(err)
	cells := make([]*sweep.CellSummary, len(grid))
	for i, o := range outs {
		if o.t == nil {
			continue
		}
		cells[i] = o.sum
		p.ledger.add(o.t)
		p.busy += o.wall
		if o.wall > p.cellMax {
			p.cellMax = o.wall
		}
		p.failed += o.failed
		p.preemptions += o.preempted
	}
	t1 := time.Now()
	var report bytes.Buffer
	experiments.RenderCampaign(&report, cells)
	p.render = time.Since(t1)
	p.wall = time.Since(t0)
	p.digest = digest(cells)
	return p
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 18 [running]:"). The campaign loads a cell's source and hands
// back the finished cell on the same worker goroutine, so the id pairs each
// cell's end with its start.
func goid() uint64 {
	var buf [64]byte
	s := buf[:runtime.Stack(buf[:], false)]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(string(s), 10, 64)
	return id
}
