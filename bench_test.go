// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §6 for the index), plus ablation benches for the
// design choices DESIGN.md calls out and micro-benchmarks of the substrates.
//
// The figure benches run on a quarter-scale workload (about 3,300 jobs on a
// 250-node machine) so the whole suite finishes in minutes; the nine-policy
// sweep is executed once and shared, with each figure bench measuring its
// artifact's assembly and reporting the headline series values as benchmark
// metrics. BenchmarkFullSweep times the complete scaled sweep itself;
// cmd/experiments regenerates everything at full scale.
package fairsched_test

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"fairsched"
	"fairsched/internal/core"
	"fairsched/internal/eventq"
	"fairsched/internal/experiments"
	"fairsched/internal/fairness"
	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/scenario"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/sweep"
	"fairsched/internal/workload"
)

const (
	benchScale = 0.25
	benchNodes = 250
	benchSeed  = 42
)

var (
	benchOnce     sync.Once
	benchJobs     []*job.Job
	benchSweep    *experiments.Results
	benchSweepErr error
)

func benchSetup(b *testing.B) (*experiments.Results, []*job.Job) {
	b.Helper()
	benchOnce.Do(func() {
		benchJobs, benchSweepErr = workload.Generate(workload.Config{
			Seed: benchSeed, Scale: benchScale, SystemSize: benchNodes,
		})
		if benchSweepErr != nil {
			return
		}
		benchSweep, benchSweepErr = experiments.RunOn(
			core.StudyConfig{SystemSize: benchNodes}, benchJobs, 1)
	})
	if benchSweepErr != nil {
		b.Fatal(benchSweepErr)
	}
	return benchSweep, benchJobs
}

// reportSeries exposes a figure's first-series values as benchmark metrics,
// keyed by label.
func reportSeries(b *testing.B, f experiments.Figure) {
	for i, v := range f.Series[0].Values {
		b.ReportMetric(v, f.Labels[i])
	}
}

// --- Tables 1-2 and Figures 3-7: workload characterization ---

func BenchmarkTable1JobCounts(b *testing.B) {
	var grid [job.NumWidthCategories][job.NumLengthCategories]int
	for i := 0; i < b.N; i++ {
		jobs, err := workload.Generate(workload.Config{Seed: benchSeed, Scale: benchScale, SystemSize: benchNodes})
		if err != nil {
			b.Fatal(err)
		}
		grid = job.CountGrid(jobs)
	}
	total := 0
	for _, row := range grid {
		for _, c := range row {
			total += c
		}
	}
	b.ReportMetric(float64(total), "jobs")
}

func BenchmarkTable2ProcHours(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		jobs, err := workload.Generate(workload.Config{Seed: benchSeed, Scale: benchScale, SystemSize: benchNodes})
		if err != nil {
			b.Fatal(err)
		}
		grid := job.ProcHourGrid(jobs)
		total = 0
		for _, row := range grid {
			for _, c := range row {
				total += c
			}
		}
	}
	b.ReportMetric(total, "proc-hours")
}

func BenchmarkFig3OfferedLoad(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure3()
	}
	peak, util := 0.0, 0.0
	for i := range f.Labels {
		if v := f.Series[0].Values[i]; v > peak {
			peak = v
		}
		if v := f.Series[1].Values[i]; v > util {
			util = v
		}
	}
	b.ReportMetric(peak, "peak-offered-%")
	b.ReportMetric(util, "peak-util-%")
}

func benchCharacterize(b *testing.B) *experiments.Characterization {
	b.Helper()
	_, jobs := benchSetup(b)
	var c *experiments.Characterization
	for i := 0; i < b.N; i++ {
		c = experiments.Characterize(jobs)
	}
	return c
}

func BenchmarkFig4RuntimeNodes(b *testing.B) {
	c := benchCharacterize(b)
	b.ReportMetric(100*c.StandardAllocFraction, "standard-alloc-%")
	b.ReportMetric(c.RuntimeNodesLogCorr, "loglog-r")
}

func BenchmarkFig5Estimates(b *testing.B) {
	c := benchCharacterize(b)
	b.ReportMetric(100*c.OverestimatedFraction, "over-%")
	b.ReportMetric(100*c.UnderestimatedFraction, "under-%")
	b.ReportMetric(c.MedianOverestimation, "median-factor")
}

func BenchmarkFig6OverestimationRuntime(b *testing.B) {
	c := benchCharacterize(b)
	b.ReportMetric(c.OverRuntimeLogCorr, "runtime-factor-r")
}

func BenchmarkFig7OverestimationNodes(b *testing.B) {
	c := benchCharacterize(b)
	b.ReportMetric(c.OverNodesLogCorr, "nodes-factor-r")
}

// --- Figures 8-13: the minor-changes study ---

func BenchmarkFig8PercentUnfairMinor(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure8()
	}
	reportSeries(b, f)
}

func BenchmarkFig9AvgMissTimeMinor(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure9()
	}
	reportSeries(b, f)
}

func BenchmarkFig10MissByWidthMinor(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure10()
	}
	// The quarter-scale machine (250 nodes) has no 513+ jobs; report the
	// widest populated category (129-256).
	b.ReportMetric(f.Series[0].Values[8], "baseline-129-256-miss-s")
}

func BenchmarkFig11TurnaroundMinor(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure11()
	}
	reportSeries(b, f)
}

func BenchmarkFig12TurnaroundByWidthMinor(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure12()
	}
	b.ReportMetric(f.Series[0].Values[8], "baseline-129-256-tat-s")
}

func BenchmarkFig13LOCMinor(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure13()
	}
	reportSeries(b, f)
}

// --- Figures 14-19: the full nine-policy study ---

func BenchmarkFig14PercentUnfairAll(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure14()
	}
	reportSeries(b, f)
}

func BenchmarkFig15AvgMissTimeAll(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure15()
	}
	reportSeries(b, f)
}

func BenchmarkFig16MissByWidthConservative(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure16()
	}
	b.ReportMetric(f.Series[1].Values[8], "cons-129-256-miss-s")
}

func BenchmarkFig17TurnaroundAll(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure17()
	}
	reportSeries(b, f)
}

func BenchmarkFig18TurnaroundByWidthConservative(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure18()
	}
	b.ReportMetric(f.Series[1].Values[8], "cons-129-256-tat-s")
}

func BenchmarkFig19LOCAll(b *testing.B) {
	sweep, _ := benchSetup(b)
	var f experiments.Figure
	for i := 0; i < b.N; i++ {
		f = sweep.Figure19()
	}
	reportSeries(b, f)
}

// BenchmarkFullSweep times the complete nine-policy quarter-scale sweep
// (workload generation through claim checking).
func BenchmarkFullSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(experiments.Config{
			Workload: workload.Config{Seed: benchSeed, Scale: benchScale, SystemSize: benchNodes},
			Study:    core.StudyConfig{SystemSize: benchNodes},
		})
		if err != nil {
			b.Fatal(err)
		}
		pass := experiments.CheckClaims(io.Discard, res)
		b.ReportMetric(float64(pass), "claims-passing")
	}
}

// --- Sweep engine throughput (docs/PERFORMANCE.md) ---

// benchSweepThroughput drives the nine-policy sweep through the worker pool
// at a fixed parallelism and reports runs/sec and simulated events/sec —
// the two axes BENCH_*.json tracks across PRs. The workload is generated
// once outside the timed region; each iteration re-simulates all nine
// policies.
func benchSweepThroughput(b *testing.B, parallel int) {
	_, jobs := benchSetup(b)
	specs := core.AllSpecs()
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := sweep.Map(parallel, specs,
			func(s core.Spec) string { return s.Key },
			func(_ int, s core.Spec) (*core.Run, error) {
				return core.Execute(core.StudyConfig{SystemSize: benchNodes}, s, jobs)
			})
		if err != nil {
			b.Fatal(err)
		}
		events = 0
		for _, r := range runs {
			events += r.Result.Events
		}
	}
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*len(specs))/elapsed, "runs/sec")
		b.ReportMetric(float64(b.N)*float64(events)/elapsed, "events/sec")
	}
}

func BenchmarkSweepThroughputParallel1(b *testing.B) { benchSweepThroughput(b, 1) }
func BenchmarkSweepThroughputParallel2(b *testing.B) { benchSweepThroughput(b, 2) }
func BenchmarkSweepThroughputParallel4(b *testing.B) { benchSweepThroughput(b, 4) }
func BenchmarkSweepThroughputParallelMax(b *testing.B) {
	benchSweepThroughput(b, runtime.GOMAXPROCS(0))
}

// BenchmarkSweepMatrixSeeds times the (seed × policy) campaign behind
// `cmd/experiments -seeds` at full machine width: 3 seeds × 9 policies per
// iteration.
func BenchmarkSweepMatrixSeeds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := sweep.Campaign{
			Sources: []scenario.Source{
				scenario.Synthetic(workload.Config{Scale: 0.1, SystemSize: benchNodes}),
			},
			Study: core.StudyConfig{SystemSize: benchNodes},
			Seeds: []int64{1, 2, 3},
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 3 {
			b.Fatalf("got %d seed cells", len(cells))
		}
	}
}

// --- Ablations (DESIGN.md §7) ---

func benchRunPolicy(b *testing.B, cfg core.StudyConfig, key string) *fairsched.Summary {
	b.Helper()
	_, jobs := benchSetup(b)
	spec, err := core.SpecByKey(key)
	if err != nil {
		b.Fatal(err)
	}
	if cfg.SystemSize == 0 {
		cfg.SystemSize = benchNodes
	}
	var run *core.Run
	for i := 0; i < b.N; i++ {
		run, err = core.Execute(cfg, spec, jobs)
		if err != nil {
			b.Fatal(err)
		}
	}
	return run.Summary
}

// BenchmarkAblationFSTOverhead* measure the hybrid-FST engine's cost by
// running the baseline with and without the observer attached.
func BenchmarkAblationFSTOverheadOn(b *testing.B) {
	s := benchRunPolicy(b, core.StudyConfig{}, "cplant24.nomax.all")
	b.ReportMetric(s.PercentUnfair, "unfair-%")
}

func BenchmarkAblationFSTOverheadOff(b *testing.B) {
	benchRunPolicy(b, core.StudyConfig{SkipFST: true}, "cplant24.nomax.all")
}

// BenchmarkAblationCompression* compare static conservative (reservation-
// preserving with fairshare improvement passes) against dynamic rebuilds.
func BenchmarkAblationCompressionStatic(b *testing.B) {
	s := benchRunPolicy(b, core.StudyConfig{}, "cons.nomax")
	b.ReportMetric(s.PercentUnfair, "unfair-%")
	b.ReportMetric(s.AvgMissTime, "miss-s")
}

func BenchmarkAblationCompressionDynamic(b *testing.B) {
	s := benchRunPolicy(b, core.StudyConfig{}, "consdyn.nomax")
	b.ReportMetric(s.PercentUnfair, "unfair-%")
	b.ReportMetric(s.AvgMissTime, "miss-s")
}

// BenchmarkAblationDecay* sweep the fairshare decay factor (the paper fixes
// the 24h interval but not the factor; 0.5 is our default).
func benchDecay(b *testing.B, factor float64) {
	s := benchRunPolicy(b, core.StudyConfig{
		Fairshare: fairshare.Config{DecayFactor: factor},
	}, "cplant24.nomax.all")
	b.ReportMetric(s.PercentUnfair, "unfair-%")
	b.ReportMetric(s.AvgMissTime, "miss-s")
}

func BenchmarkAblationDecay25(b *testing.B) { benchDecay(b, 0.25) }
func BenchmarkAblationDecay50(b *testing.B) { benchDecay(b, 0.50) }
func BenchmarkAblationDecay75(b *testing.B) { benchDecay(b, 0.75) }

// BenchmarkAblationHeavy* compare heavy-user classifiers on the *.fair
// policy (our default is above-mean).
func benchHeavy(b *testing.B, heavy fairshare.HeavyClassifier) {
	_, jobs := benchSetup(b)
	var unfair float64
	for i := 0; i < b.N; i++ {
		pol := sched.MustParse("cplant24.nomax.fair")
		pol.SetHeavyClassifier(heavy)
		fst := fairness.NewHybridFST()
		res, err := sim.New(sim.Config{SystemSize: benchNodes}, pol, fst).Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		u := fairness.Measure(res.Records, fst.Table())
		unfair = u.PercentUnfair()
	}
	b.ReportMetric(unfair, "unfair-%")
}

func BenchmarkAblationHeavyAboveMean(b *testing.B)     { benchHeavy(b, fairshare.AboveMean{}) }
func BenchmarkAblationHeavyAboveQuantile(b *testing.B) { benchHeavy(b, fairshare.AboveQuantile{}) }

// BenchmarkAblationSplit* compare the three split-submission models under
// the 72h maximum-runtime policy.
func benchSplit(b *testing.B, mode sim.SplitMode) {
	s := benchRunPolicy(b, core.StudyConfig{Split: mode}, "cplant24.72max.all")
	b.ReportMetric(s.PercentUnfair, "unfair-%")
	b.ReportMetric(s.AvgMissTime, "miss-s")
}

func BenchmarkAblationSplitUpfront(b *testing.B)   { benchSplit(b, sim.SplitUpfront) }
func BenchmarkAblationSplitStaggered(b *testing.B) { benchSplit(b, sim.SplitStaggered) }
func BenchmarkAblationSplitChained(b *testing.B)   { benchSplit(b, sim.SplitChained) }

// BenchmarkAblationDepth* sweep the reservation depth of depth-n
// backfilling (the paper's "first n jobs get a reservation" spectrum
// between aggressive and conservative).
func benchDepth(b *testing.B, depth int) {
	s := benchRunPolicy(b, core.StudyConfig{}, fmt.Sprintf("depth%d", depth))
	b.ReportMetric(s.PercentUnfair, "unfair-%")
	b.ReportMetric(s.AvgMissTime, "miss-s")
	b.ReportMetric(100*s.LossOfCapacity, "loc-%")
}

func BenchmarkAblationDepth1(b *testing.B)  { benchDepth(b, 1) }
func BenchmarkAblationDepth4(b *testing.B)  { benchDepth(b, 4) }
func BenchmarkAblationDepth16(b *testing.B) { benchDepth(b, 16) }

// --- Substrate micro-benchmarks ---

func BenchmarkProfileEarliestFitOccupy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := profile.New(0, 1024, 1024)
		for k := 0; k < 200; k++ {
			dur := int64(k%97 + 1)
			nodes := k%512 + 1
			s, ok := p.EarliestFit(int64(k), dur, nodes)
			if !ok {
				b.Fatal("no fit")
			}
			if err := p.Occupy(s, s+dur, nodes); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAvailabilityListSchedule(b *testing.B) {
	_, jobs := benchSetup(b)
	head := jobs
	if len(head) > 500 {
		head = head[:500]
	}
	fst := fairness.NewHybridFST()
	for i := 0; i < b.N; i++ {
		pol := sched.MustParse("list.fairshare")
		if _, err := sim.New(sim.Config{SystemSize: benchNodes}, pol, fst).Run(head); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventQueue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var q eventq.Queue[*job.Job]
		q.Grow(1000)
		for k := 0; k < 1000; k++ {
			q.Push(eventq.Event[*job.Job]{Time: int64(k * 7919 % 1000)})
		}
		for {
			if _, ok := q.Pop(); !ok {
				break
			}
		}
	}
}

func BenchmarkFairshareAccrue(b *testing.B) {
	usages := make([]fairshare.Usage, 64)
	for i := range usages {
		usages[i] = fairshare.Usage{User: i % 16, Nodes: i%32 + 1}
	}
	tr := fairshare.NewTracker(fairshare.DefaultConfig(), 0)
	now := int64(0)
	for i := 0; i < b.N; i++ {
		now += 600
		if err := tr.Accrue(now, usages); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGenerateFullScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		jobs, err := workload.Generate(workload.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(jobs) == 0 {
			b.Fatal("empty workload")
		}
	}
}
