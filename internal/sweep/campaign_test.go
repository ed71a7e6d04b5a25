package sweep_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"weak"

	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/job"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
	"fairsched/internal/topology"
	"fairsched/internal/workload"
)

func testCampaign(parallel int) sweep.Campaign {
	return sweep.Campaign{
		Sources: []scenario.Source{
			scenario.Synthetic(workload.Config{Scale: 0.02, SystemSize: 100}),
		},
		Scenarios: []scenario.Scenario{
			scenario.Baseline(),
			mustScenario("load=1.3"),
			mustScenario("window=0..4w"),
			mustScenario("perturb=3"),
		},
		Seeds:    []int64{42, 43},
		Specs:    mustSpecs("fcfs", "easy"),
		Study:    core.StudyConfig{SystemSize: 100},
		Parallel: parallel,
	}
}

func mustSpecs(keys ...string) []core.Spec {
	out := make([]core.Spec, 0, len(keys))
	for _, k := range keys {
		s, err := core.SpecByKey(k)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

func mustScenario(spec string) scenario.Scenario {
	s, err := scenario.Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// The whole point of the campaign engine: the rendered report is
// byte-identical at every parallelism, whatever order the (cell, policy)
// tasks finish in.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	render := func(parallel int) string {
		cells, err := testCampaign(parallel).Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		experiments.RenderCampaign(&buf, cells)
		return buf.String()
	}
	serial := render(1)
	if serial == "" {
		t.Fatal("empty campaign report")
	}
	for _, parallel := range []int{2, 8} {
		if render(parallel) != serial {
			t.Errorf("campaign report differs between -parallel 1 and %d", parallel)
		}
	}
}

// A failing cell leaves a nil summary slot and one casualty (its load
// failure is reported once, not once per policy) without disturbing the
// surviving cells.
func TestCampaignRunFailureIsolation(t *testing.T) {
	c := testCampaign(4)
	c.Scenarios = append(c.Scenarios, scenario.Scenario{
		Name:       "broken",
		Transforms: []scenario.Transform{scenario.UserFilter{}},
	})
	cells, err := c.Run()
	var errs *sweep.Errors
	if !errors.As(err, &errs) {
		t.Fatalf("want *sweep.Errors, got %v", err)
	}
	if len(errs.Runs) != 2 {
		t.Fatalf("want 2 failed cells (broken × 2 seeds), got %v", errs)
	}
	if len(cells) != 5*2 {
		t.Fatalf("got %d cells, want 10", len(cells))
	}
	for i, cell := range cells {
		broken := i >= 8 // broken scenario is last: 2 seeds at the tail
		if broken && cell != nil {
			t.Errorf("cell %d should have failed", i)
		}
		if !broken && cell == nil {
			t.Errorf("cell %d should have survived", i)
		}
	}
}

// TestCampaignRunReleasesFinishedCells pins Run's memory bound: it keeps
// only each cell's summaries, so the jobs a finished cell loaded are
// garbage once later cells run. At -parallel 1 the cells run in matrix
// order, so when cell k loads, cell k-2 finished a whole cell earlier and
// its jobs must be collectable.
func TestCampaignRunReleasesFinishedCells(t *testing.T) {
	synth := scenario.Synthetic(workload.Config{Scale: 0.01, SystemSize: 100})
	var loaded []weak.Pointer[job.Job]
	var pinned []int
	src := scenario.Source{Name: synth.Name, Load: func(seed int64) (*scenario.Workload, error) {
		if k := len(loaded); k >= 2 {
			runtime.GC()
			if loaded[k-2].Value() != nil {
				pinned = append(pinned, k-2)
			}
		}
		wl, err := synth.Load(seed)
		if err == nil {
			loaded = append(loaded, weak.Make(wl.Jobs[0]))
		}
		return wl, err
	}}
	cells, err := sweep.Campaign{
		Sources:  []scenario.Source{src},
		Seeds:    []int64{1, 2, 3, 4, 5},
		Specs:    mustSpecs("fcfs", "easy"),
		Study:    core.StudyConfig{SystemSize: 100},
		Parallel: 1,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 || len(loaded) != 5 {
		t.Fatalf("got %d cells from %d loads, want 5 and 5", len(cells), len(loaded))
	}
	if len(pinned) > 0 {
		t.Fatalf("cells %v still held their jobs two cells later", pinned)
	}
}

func TestCampaignMatrixShapeAndOrder(t *testing.T) {
	c := testCampaign(4)
	cells, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1*4*2 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// Matrix order: scenarios outer, seeds inner.
	want := 0
	for _, scen := range c.Scenarios {
		for _, seed := range c.Seeds {
			cell := cells[want]
			if cell.Scenario != scen.Name || cell.Seed != seed {
				t.Fatalf("cell %d = %s/%d, want %s/%d", want, cell.Scenario, cell.Seed, scen.Name, seed)
			}
			if cell.Jobs == 0 {
				t.Fatalf("cell %d ran over an empty workload", want)
			}
			if len(cell.Summaries) != 2 || cell.Policies[0] != "fcfs" {
				t.Fatalf("cell %d policies wrong: %v", want, cell.Policies)
			}
			want++
		}
	}
	// The seed axis must actually vary the workload (synthetic source
	// regenerates per seed).
	if cells[0].Jobs == cells[1].Jobs &&
		cells[0].Summaries[0].AvgWait == cells[1].Summaries[0].AvgWait {
		t.Error("seeds 42 and 43 produced identical cells")
	}
}

// RunEach must hand over every cell exactly once, complete with runs in
// spec order, through serialized callbacks, and keep the other cells alive
// when one fails.
func TestCampaignRunEachAndFailureIsolation(t *testing.T) {
	c := testCampaign(4)
	// A scenario whose transform always fails: user filter selecting nobody.
	c.Scenarios = append(c.Scenarios, scenario.Scenario{
		Name:       "broken",
		Transforms: []scenario.Transform{scenario.UserFilter{}},
	})
	var got []string
	inCallback := false
	err := c.RunEach(func(cell sweep.Cell) {
		if inCallback {
			t.Error("callbacks overlap")
		}
		inCallback = true
		defer func() { inCallback = false }()
		got = append(got, fmt.Sprintf("%s/%d", cell.Scenario, cell.Seed))
		if len(cell.Runs) != len(c.Specs) {
			t.Errorf("cell %s/%d has %d runs", cell.Scenario, cell.Seed, len(cell.Runs))
			return
		}
		for k, run := range cell.Runs {
			if run == nil || run.Spec.Key != c.Specs[k].Key {
				t.Errorf("cell %s/%d run %d is not %s", cell.Scenario, cell.Seed, k, c.Specs[k].Key)
			}
		}
	})
	var errs *sweep.Errors
	if !errors.As(err, &errs) {
		t.Fatalf("want *sweep.Errors, got %v", err)
	}
	if len(errs.Runs) != 2 {
		t.Fatalf("want 2 failed cells (broken × 2 seeds), got %v", errs)
	}
	sort.Strings(got)
	if len(got) != 8 {
		t.Fatalf("callback fired %d times, want 8: %v", len(got), got)
	}
	for _, g := range got {
		if g == "broken/42" || g == "broken/43" {
			t.Fatalf("failed cell reached the callback: %v", got)
		}
	}
}

// A window-sliced cell must shift the fairshare epoch by its origin shift:
// slicing 12h off a midnight-started trace moves the first decay boundary
// to 12h into the slice, not 24h.
func TestCampaignWindowShiftsEpoch(t *testing.T) {
	jobs, err := workload.Generate(workload.Config{Seed: 3, Scale: 0.01, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	src := scenario.Source{
		Name: "origin",
		Load: func(int64) (*scenario.Workload, error) {
			return &scenario.Workload{Jobs: jobs, SystemSize: 100, UnixStartTime: 5 * 86400}, nil
		},
	}
	c := sweep.Campaign{
		Sources: []scenario.Source{src},
		Scenarios: []scenario.Scenario{
			scenario.Baseline().With(scenario.Window{Start: 12 * 3600}),
		},
		Specs:    mustSpecs("fcfs"),
		Study:    core.StudyConfig{SystemSize: 100},
		Parallel: 1,
	}
	var cells []sweep.Cell
	if err := c.RunEach(func(cell sweep.Cell) { cells = append(cells, cell) }); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("got %d cells", len(cells))
	}
	// UnixStartTime 5d is boundary-aligned; a 12h window start means the
	// slice origin sits mid-interval: epoch -(12h % 24h) = -43200.
	if cells[0].Epoch != -43200 {
		t.Fatalf("epoch = %d, want -43200", cells[0].Epoch)
	}
}

// Campaign defaults: empty scenario/seed/spec lists fall back to baseline,
// seed 0 and the full nine-policy set, and a study-level SLO assignment
// applies to a cell whose scenario contributes none.
func TestCampaignDefaults(t *testing.T) {
	wl := workload.Config{Scale: 0.01, SystemSize: 100}
	jobs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := mustScenario("slo=default:1h").SLOAssignment(jobs)
	if err != nil {
		t.Fatal(err)
	}
	c := sweep.Campaign{
		Sources:  []scenario.Source{scenario.Synthetic(wl)},
		Study:    core.StudyConfig{SystemSize: 100, SLO: asg},
		Parallel: 1,
	}
	cells, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	if cells[0].Scenario != "baseline" || cells[0].Seed != 0 {
		t.Fatalf("defaults wrong: %+v", cells[0])
	}
	if len(cells[0].Summaries) != len(core.AllSpecs()) {
		t.Fatalf("got %d policies, want all %d", len(cells[0].Summaries), len(core.AllSpecs()))
	}
	if len(cells[0].SLOs) != len(core.AllSpecs()) || cells[0].SLOs[0] == nil {
		t.Fatal("study-level SLO assignment dropped from a baseline cell")
	}
}

// A policy the study's topology cannot run fails the campaign once,
// before any cell loads: no summaries, one error naming the policy, and
// no source is ever read — through Run and RunEach alike.
func TestCampaignRejectsPolicyBeforeLoading(t *testing.T) {
	loads := 0
	src := scenario.Source{
		Name: "counted",
		Load: func(int64) (*scenario.Workload, error) {
			loads++
			return nil, errors.New("loaded")
		},
	}
	for _, tc := range []struct{ topo, policy, wantSub string }{
		{"queue=x,queue=y", "edf", "order=edf is not supported with a topology"},
		{"queue=x:cap=0.5,queue=y", "cons.nomax", "cannot run under a cap= quota"},
	} {
		c := sweep.Campaign{
			Sources:  []scenario.Source{src, src},
			Specs:    mustSpecs("easy", tc.policy),
			Study:    core.StudyConfig{SystemSize: 100, Topology: topology.MustParse(tc.topo)},
			Parallel: 2,
		}
		cells, err := c.Run()
		if cells != nil || err == nil || !strings.Contains(err.Error(), tc.wantSub) || !strings.Contains(err.Error(), tc.policy) {
			t.Errorf("%s × %s: Run = %v, %v; want no cells and an error naming the policy", tc.topo, tc.policy, cells, err)
		}
		err = c.RunEach(func(sweep.Cell) { t.Error("RunEach delivered a cell") })
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s × %s: RunEach = %v", tc.topo, tc.policy, err)
		}
	}
	if loads != 0 {
		t.Errorf("%d source loads, want none", loads)
	}
}
