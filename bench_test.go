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
	"time"

	"fairsched/internal/core"
	"fairsched/internal/eventq"
	"fairsched/internal/experiments"
	"fairsched/internal/fairness"
	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
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
// (workload generation through the rendered report).
func BenchmarkFullSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(experiments.Config{
			Workload: workload.Config{Seed: benchSeed, Scale: benchScale, SystemSize: benchNodes},
			Study:    core.StudyConfig{SystemSize: benchNodes},
		})
		if err != nil {
			b.Fatal(err)
		}
		experiments.WriteReport(io.Discard, res)
	}
}

// --- Sweep engine throughput (docs/PERFORMANCE.md) ---

// benchSweepThroughput drives the nine-policy sweep through the worker pool
// at a fixed parallelism and reports runs/sec and simulated events/sec.
// The workload is generated once outside the timed region; each iteration
// re-simulates all nine policies.
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

// --- Population scaling (DESIGN.md §15) ---

// BenchmarkPopulation measures one cohort population per size, from trace
// scale (640 users) to a million users. The job budget is fixed at 20k, so
// only the user axis varies and ns/event isolates the per-user index cost:
// §15's bar is 10^5 users within 1.5x of the 640-user ns/event. Each op
// generates the population and simulates it under list.fairshare on a
// 1000-node machine; users/s times the generation alone, and tracker-B/user
// is the fairshare tracker's retained heap after charging every user once.
func BenchmarkPopulation(b *testing.B) {
	for _, users := range []int{640, 1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("users%d", users), func(b *testing.B) {
			cfg := workload.PopConfig{Seed: benchSeed, Users: users, Jobs: 20_000}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tr := fairshare.NewTracker(fairshare.DefaultConfig(), 0)
			for u := 1; u <= users; u++ {
				tr.Charge(u, 1)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(tr)
			bytesPerUser := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(users)

			var gen, run time.Duration
			var events int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				jobs, err := workload.GeneratePopulation(cfg)
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				res, err := sim.New(sim.Config{SystemSize: 1000}, sched.MustParse("list.fairshare")).Run(jobs)
				if err != nil {
					b.Fatal(err)
				}
				gen, run = gen+t1.Sub(t0), run+time.Since(t1)
				events = res.Events
			}
			b.ReportMetric(float64(b.N*users)/gen.Seconds(), "users/s")
			b.ReportMetric(bytesPerUser, "tracker-B/user")
			b.ReportMetric(float64(run.Nanoseconds())/float64(b.N)/float64(events), "ns/event")
			b.ReportMetric(float64(events), "events/run")
		})
	}
}

// --- Ablations (DESIGN.md §7) ---

func benchRunPolicy(b *testing.B, cfg core.StudyConfig, key string) *metrics.Summary {
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

// BenchmarkAblation runs the design-choice ablations, one sub-benchmark
// per choice, each reporting the summary metrics its comparison reads:
//   - FSTOverhead: the baseline with and without the hybrid-FST observer;
//   - Compression: static conservative (reservation-preserving, with
//     fairshare improvement passes) against dynamic rebuilds;
//   - Decay: the fairshare decay factor (the paper fixes the 24h interval
//     but not the factor; 0.5 is the default);
//   - Heavy: heavy-user classifiers on the *.fair policy (above-mean is the
//     default, q75 the above-quantile alternative);
//   - Split: the three split-submission models under the 72h limit;
//   - Depth: the reservation depth of depth-n backfilling, the paper's
//     "first n jobs get a reservation" spectrum between aggressive and
//     conservative.
func BenchmarkAblation(b *testing.B) {
	const (
		unfair = 1 << iota
		miss
		loc
	)
	for _, c := range []struct {
		name    string
		cfg     core.StudyConfig
		key     string
		metrics int
	}{
		{"FSTOverheadOn", core.StudyConfig{}, "cplant24.nomax.all", unfair},
		{"FSTOverheadOff", core.StudyConfig{SkipFST: true}, "cplant24.nomax.all", 0},
		{"CompressionStatic", core.StudyConfig{}, "cons.nomax", unfair | miss},
		{"CompressionDynamic", core.StudyConfig{}, "consdyn.nomax", unfair | miss},
		{"Decay25", core.StudyConfig{Fairshare: fairshare.Config{DecayFactor: 0.25}}, "cplant24.nomax.all", unfair | miss},
		{"Decay50", core.StudyConfig{Fairshare: fairshare.Config{DecayFactor: 0.50}}, "cplant24.nomax.all", unfair | miss},
		{"Decay75", core.StudyConfig{Fairshare: fairshare.Config{DecayFactor: 0.75}}, "cplant24.nomax.all", unfair | miss},
		{"HeavyAboveMean", core.StudyConfig{}, "cplant24.nomax.fair", unfair},
		{"HeavyAboveQuantile", core.StudyConfig{}, "order=fairshare+starve=24h.q75", unfair},
		{"SplitUpfront", core.StudyConfig{Split: sim.SplitUpfront}, "cplant24.72max.all", unfair | miss},
		{"SplitStaggered", core.StudyConfig{Split: sim.SplitStaggered}, "cplant24.72max.all", unfair | miss},
		{"SplitChained", core.StudyConfig{Split: sim.SplitChained}, "cplant24.72max.all", unfair | miss},
		{"Depth1", core.StudyConfig{}, "depth1", unfair | miss | loc},
		{"Depth4", core.StudyConfig{}, "depth4", unfair | miss | loc},
		{"Depth16", core.StudyConfig{}, "depth16", unfair | miss | loc},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := benchRunPolicy(b, c.cfg, c.key)
			if c.metrics&unfair != 0 {
				b.ReportMetric(s.PercentUnfair, "unfair-%")
			}
			if c.metrics&miss != 0 {
				b.ReportMetric(s.AvgMissTime, "miss-s")
			}
			if c.metrics&loc != 0 {
				b.ReportMetric(100*s.LossOfCapacity, "loc-%")
			}
		})
	}
}

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

// BenchmarkEventQueue runs 1000 events through the list. pushed pushes
// them all, then pops; preloaded is the simulator's shape: 1000 arrivals
// preloaded in time order, each popped arrival pushing its completion.
func BenchmarkEventQueue(b *testing.B) {
	b.Run("pushed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var q eventq.Queue[*job.Job]
			for k := 0; k < 1000; k++ {
				q.Push(eventq.Event[*job.Job]{Time: int64(k * 7919 % 1000)})
			}
			for {
				if _, ok := q.Pop(); !ok {
					break
				}
			}
		}
	})
	b.Run("preloaded", func(b *testing.B) {
		b.ReportAllocs()
		arrivals := make([]eventq.Event[*job.Job], 1000)
		for k := range arrivals {
			arrivals[k] = eventq.Event[*job.Job]{Time: int64(k), Prio: 2}
		}
		for i := 0; i < b.N; i++ {
			var q eventq.Queue[*job.Job]
			q.Preload(len(arrivals), func(i int) eventq.Event[*job.Job] { return arrivals[i] })
			for {
				e, ok := q.Pop()
				if !ok {
					break
				}
				if e.Prio == 2 {
					q.Push(eventq.Event[*job.Job]{Time: e.Time + int64(e.Seq*7919%97)})
				}
			}
		}
	})
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
