// Command schedbench measures the scheduler's performance trajectory and
// emits it as machine-readable JSON (the CI artifact BENCH_sched.json):
//
//   - per-event scheduling cost (ns/event) for representative composed
//     policies on a contended workload, exercising the shared-availability-
//     profile path every reservation and backfill check reads;
//   - sweep throughput (runs/sec, events/sec) for the paper's nine-policy
//     study over the calibrated synthetic trace;
//   - measurement-plane cost: the hybrid fair-start-time engine's
//     ns/arrival and allocs/arrival on deep contended queues (the §4.1
//     metric every fairness figure reads);
//   - trace-cache load throughput (jobs/sec) and manifest-campaign
//     throughput (runs/sec), cache-cold vs cache-warm, over a synthetic
//     three-trace manifest.
//
// Usage:
//
//	schedbench                          # default: scale 0.05 sweep, contended events
//	schedbench -out BENCH_sched.json    # write JSON to a file (default stdout)
//	schedbench -scale 0.1 -repeat 3     # heavier sweep, best-of-3 timing
//	schedbench -compare prev.json ...   # also print a warn-only benchstat-style
//	                                    # delta against a previous report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fairsched/internal/core"
	"fairsched/internal/fairness"
	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/scenario"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/sweep"
	"fairsched/internal/swf"
	"fairsched/internal/tracecache"
	"fairsched/internal/workload"
)

// policyBench is one per-event cost measurement.
type policyBench struct {
	Policy    string  `json:"policy"`
	Events    int64   `json:"events"`
	NsPerEvt  float64 `json:"ns_per_event"`
	Jobs      int     `json:"jobs"`
	RunMillis float64 `json:"run_ms"`
}

// sweepBench is the nine-policy sweep throughput measurement.
type sweepBench struct {
	Runs         int     `json:"runs"`
	Jobs         int     `json:"jobs"`
	Seconds      float64 `json:"seconds"`
	RunsPerSec   float64 `json:"runs_per_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
	Parallel     int     `json:"parallel"`
}

// fairnessBench is one measurement-plane probe: the hybrid-FST engine's
// cost per arrival on a contended system with a queue of the given depth.
type fairnessBench struct {
	Queue            int     `json:"queue"`
	Running          int     `json:"running"`
	NsPerArrival     float64 `json:"ns_per_arrival"`
	AllocsPerArrival float64 `json:"allocs_per_arrival"`
}

// cacheBench is the trace-cache cold/warm measurement over a synthetic
// three-trace manifest. The jobs/sec pair times the load path alone (cold:
// stream SWF + encode + write the cache; warm: decode the cache); the
// runs/sec pair times a whole manifest campaign (cold: first run, caches
// building; warm: second run, every cache reused).
type cacheBench struct {
	Traces         int     `json:"traces"`
	Jobs           int     `json:"jobs"` // total converted jobs across the traces
	ColdJobsPerSec float64 `json:"cold_jobs_per_sec"`
	WarmJobsPerSec float64 `json:"warm_jobs_per_sec"`
	ColdRunsPerSec float64 `json:"cold_runs_per_sec"`
	WarmRunsPerSec float64 `json:"warm_runs_per_sec"`
}

// popBench is one population-scale measurement (DESIGN.md §15): generator
// throughput streaming a cohort population of the given size, the fairshare
// tracker's retained bytes per charged user, and per-event simulation cost
// under a fairshare-ordering policy on the generated workload. The job
// budget is fixed across sizes, so ns/event isolates the per-user index
// cost as the population grows (the 640-user row is the trace-scale anchor
// the larger rows are compared against).
type popBench struct {
	Users          int     `json:"users"`
	Jobs           int     `json:"jobs"`
	GenUsersPerSec float64 `json:"gen_users_per_sec"`
	GenJobsPerSec  float64 `json:"gen_jobs_per_sec"`
	BytesPerUser   float64 `json:"tracker_bytes_per_user"`
	Events         int64   `json:"events"`
	NsPerEvt       float64 `json:"ns_per_event"`
}

// eventSchema versions the meaning of the event-count denominators
// (Events, ns_per_event, events_per_sec). Version 2: the simulator dedups
// identical wake reschedules, so Result.Events counts real scheduling
// events only — about a third fewer than version-0/1 reports, whose counts
// included stale wake pops. Per-event rates are not comparable across
// schema versions (docs/PERFORMANCE.md).
const eventSchema = 2

type report struct {
	Schema     int             `json:"event_schema"`
	GoOS       string          `json:"goos"`
	GoArch     string          `json:"goarch"`
	CPUs       int             `json:"cpus"`
	When       string          `json:"when"`
	Scale      float64         `json:"scale"`
	Events     []policyBench   `json:"per_event"`
	Sweep      sweepBench      `json:"sweep"`
	Cache      *cacheBench     `json:"cache,omitempty"`
	Fairness   []fairnessBench `json:"fairness,omitempty"`
	Population []popBench      `json:"population,omitempty"`
	Failures   []string        `json:"failures,omitempty"`
}

var eventPolicies = []string{
	"cplant24.nomax.all", "cplant24.depth2", "easy", "easy.sjf",
	"cons.nomax", "consdyn.nomax", "depth8", "list.fairshare", "srpt",
}

func main() {
	var (
		out     = flag.String("out", "", "write JSON here (default stdout)")
		scale   = flag.Float64("scale", 0.05, "synthetic workload scale for the sweep measurement")
		seed    = flag.Int64("seed", 42, "workload seed")
		repeat  = flag.Int("repeat", 1, "repetitions; the best (fastest) timing is reported")
		parN    = flag.Int("parallel", 1, "sweep worker count (1: serial, the comparable configuration)")
		indent  = flag.Bool("indent", true, "indent the JSON output")
		timeout = flag.Duration("budget", 10*time.Minute, "soft overall budget; exceeded -> partial report")
		compare = flag.String("compare", "", "previous BENCH_sched.json to diff against (warn-only; a missing file is noted, never fatal)")
	)
	flag.Parse()

	rep := report{
		Schema: eventSchema,
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		When:   time.Now().UTC().Format(time.RFC3339),
		Scale:  *scale,
	}
	deadline := time.Now().Add(*timeout)

	// Per-event costs on the contended workload (full-scale arrivals on a
	// quarter-size machine): deep queues keep the reservation and backfill
	// paths hot, so this is the number the shared-profile work moves.
	contended, err := workload.Generate(workload.Config{Seed: *seed, Scale: 0.1, SystemSize: 250})
	if err != nil {
		fatal(err)
	}
	for _, name := range eventPolicies {
		if time.Now().After(deadline) {
			rep.Failures = append(rep.Failures, "budget exhausted before "+name)
			break
		}
		pb, err := benchPolicy(name, contended, *repeat)
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		rep.Events = append(rep.Events, pb)
	}

	// Nine-policy sweep throughput over the calibrated synthetic trace.
	jobs, err := workload.Generate(workload.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		fatal(err)
	}
	best := sweepBench{}
	for r := 0; r < *repeat; r++ {
		sb, err := benchSweep(jobs, *parN)
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("sweep: %v", err))
			break
		}
		if best.Seconds == 0 || sb.Seconds < best.Seconds {
			best = sb
		}
	}
	rep.Sweep = best

	// Trace-cache throughput, cold vs warm, over a synthetic three-trace
	// manifest.
	if time.Now().After(deadline) {
		rep.Failures = append(rep.Failures, "budget exhausted before cache bench")
	} else if cb, err := benchCache(*seed, *repeat, *parN); err != nil {
		rep.Failures = append(rep.Failures, fmt.Sprintf("cache: %v", err))
	} else {
		rep.Cache = &cb
	}

	// Measurement-plane cost: the hybrid-FST engine's per-arrival hot path
	// at increasing queue depths (fairness.MeasureArrivalCost drives the
	// same probe BenchmarkHybridFST uses).
	for _, queue := range []int{16, 128, 512} {
		const arrivals = 2000
		ns, allocs := fairness.MeasureArrivalCost(queue, 64, arrivals)
		for r := 1; r < *repeat; r++ {
			if n2, a2 := fairness.MeasureArrivalCost(queue, 64, arrivals); n2 < ns {
				ns, allocs = n2, a2
			}
		}
		rep.Fairness = append(rep.Fairness, fairnessBench{
			Queue: queue, Running: 64, NsPerArrival: ns, AllocsPerArrival: allocs,
		})
	}

	// Population-scale costs: generator throughput, tracker bytes/user and
	// per-event cost from trace scale (640 users) up to a million users.
	for _, size := range []int{640, 1_000, 100_000, 1_000_000} {
		if time.Now().After(deadline) {
			rep.Failures = append(rep.Failures, fmt.Sprintf("budget exhausted before population %d", size))
			break
		}
		pb, err := benchPopulation(size, *seed, *repeat)
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("population %d: %v", size, err))
			continue
		}
		rep.Population = append(rep.Population, pb)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	if *indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if *compare != "" {
		compareAgainst(*compare, rep)
	}
	if len(rep.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "schedbench: %d measurements failed\n", len(rep.Failures))
		os.Exit(1)
	}
}

// compareAgainst prints a benchstat-style delta table between a previous
// report and the current one on stderr. It is strictly warn-only: a
// missing or unreadable baseline is noted and never fails the run — CI
// wires the previous push's artifact in here, and the first run of a new
// repository has nothing to compare against.
func compareAgainst(path string, cur report) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedbench: no comparison baseline (%v); skipping delta table\n", err)
		return
	}
	var prev report
	if err := json.Unmarshal(raw, &prev); err != nil {
		fmt.Fprintf(os.Stderr, "schedbench: unreadable baseline %s (%v); skipping delta table\n", path, err)
		return
	}
	w := os.Stderr
	fmt.Fprintf(w, "\nBENCH DELTA (warn-only) vs %s (recorded %s)\n", path, prev.When)
	fmt.Fprintf(w, "  %-34s %12s %12s %9s\n", "metric", "old", "new", "delta")
	row := func(name string, old, new float64) {
		if old == 0 && new == 0 {
			fmt.Fprintf(w, "  %-34s %12.1f %12.1f %9s\n", name, old, new, "=")
			return
		}
		if old == 0 {
			fmt.Fprintf(w, "  %-34s %12.1f %12.1f %9s\n", name, old, new, "n/a")
			return
		}
		fmt.Fprintf(w, "  %-34s %12.1f %12.1f %+8.1f%%\n", name, old, new, 100*(new-old)/old)
	}
	if prev.Schema == cur.Schema {
		prevEvents := make(map[string]policyBench, len(prev.Events))
		for _, p := range prev.Events {
			prevEvents[p.Policy] = p
		}
		for _, c := range cur.Events {
			if p, ok := prevEvents[c.Policy]; ok {
				row(c.Policy+" ns/event", p.NsPerEvt, c.NsPerEvt)
			}
		}
		row("sweep events/sec", prev.Sweep.EventsPerSec, cur.Sweep.EventsPerSec)
	} else {
		// The event-count denominator changed meaning between schema
		// versions (e.g. stale wake pops no longer counted), so per-event
		// rates from the two reports are not comparable: printing them
		// would show large spurious "regressions".
		fmt.Fprintf(w, "  (per-event rows skipped: baseline event schema %d, current %d — denominators differ)\n",
			prev.Schema, cur.Schema)
	}
	row("sweep runs/sec", prev.Sweep.RunsPerSec, cur.Sweep.RunsPerSec)
	if prev.Cache != nil && cur.Cache != nil {
		row("cache cold jobs/sec", prev.Cache.ColdJobsPerSec, cur.Cache.ColdJobsPerSec)
		row("cache warm jobs/sec", prev.Cache.WarmJobsPerSec, cur.Cache.WarmJobsPerSec)
		row("manifest cold runs/sec", prev.Cache.ColdRunsPerSec, cur.Cache.ColdRunsPerSec)
		row("manifest warm runs/sec", prev.Cache.WarmRunsPerSec, cur.Cache.WarmRunsPerSec)
	}
	prevPop := make(map[int]popBench, len(prev.Population))
	for _, p := range prev.Population {
		prevPop[p.Users] = p
	}
	for _, c := range cur.Population {
		if p, ok := prevPop[c.Users]; ok {
			row(fmt.Sprintf("pop %d users/sec", c.Users), p.GenUsersPerSec, c.GenUsersPerSec)
			row(fmt.Sprintf("pop %d bytes/user", c.Users), p.BytesPerUser, c.BytesPerUser)
			if prev.Schema == cur.Schema {
				row(fmt.Sprintf("pop %d ns/event", c.Users), p.NsPerEvt, c.NsPerEvt)
			}
		}
	}
	prevFair := make(map[int]fairnessBench, len(prev.Fairness))
	for _, p := range prev.Fairness {
		prevFair[p.Queue] = p
	}
	for _, c := range cur.Fairness {
		if p, ok := prevFair[c.Queue]; ok {
			row(fmt.Sprintf("fst queue%d ns/arrival", c.Queue), p.NsPerArrival, c.NsPerArrival)
			row(fmt.Sprintf("fst queue%d allocs/arrival", c.Queue), p.AllocsPerArrival, c.AllocsPerArrival)
		}
	}
}

// benchPopulation measures one population size: streaming-generation
// throughput, the fairshare tracker's retained bytes per user at that
// population, and per-event cost simulating the generated jobs under
// list.fairshare. The job budget is fixed (20k) so only the user axis
// varies between rows.
func benchPopulation(users int, seed int64, repeat int) (popBench, error) {
	const jobBudget = 20_000
	cfg := workload.PopConfig{Seed: seed, Users: users, Jobs: jobBudget}
	pb := popBench{Users: users}

	// Generator throughput: stream-and-discard, best of repeat.
	var genBest time.Duration
	count := 0
	for r := 0; r < repeat; r++ {
		n := 0
		t0 := time.Now()
		if _, err := workload.StreamPopulation(cfg, func(*job.Job) error { n++; return nil }); err != nil {
			return popBench{}, err
		}
		if el := time.Since(t0); genBest == 0 || el < genBest {
			genBest, count = el, n
		}
	}
	pb.GenUsersPerSec = float64(users) / genBest.Seconds()
	pb.GenJobsPerSec = float64(count) / genBest.Seconds()

	// Tracker residency: charge every user once and measure the retained
	// heap per user (the per-user index cost the dense paging moves).
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := fairshare.NewTracker(fairshare.DefaultConfig(), 0)
	for u := 1; u <= users; u++ {
		tr.Charge(u, 1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	pb.BytesPerUser = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(users)
	runtime.KeepAlive(tr)

	// Per-event cost under fairshare ordering on the generated workload.
	jobs, err := workload.GeneratePopulation(cfg)
	if err != nil {
		return popBench{}, err
	}
	pb.Jobs = len(jobs)
	spec, err := sched.ParseSpec("list.fairshare")
	if err != nil {
		return popBench{}, err
	}
	var bestRun time.Duration
	for r := 0; r < repeat; r++ {
		pol, err := sched.New(spec)
		if err != nil {
			return popBench{}, err
		}
		t0 := time.Now()
		res, err := sim.New(sim.Config{SystemSize: 1000}, pol).Run(jobs)
		if err != nil {
			return popBench{}, err
		}
		if el := time.Since(t0); bestRun == 0 || el < bestRun {
			bestRun = el
			pb.Events = res.Events
			pb.NsPerEvt = float64(el.Nanoseconds()) / float64(res.Events)
		}
	}
	return pb, nil
}

func benchPolicy(name string, jobs []*job.Job, repeat int) (policyBench, error) {
	spec, err := sched.ParseSpec(name)
	if err != nil {
		return policyBench{}, err
	}
	best := policyBench{Policy: name, Jobs: len(jobs)}
	for r := 0; r < repeat; r++ {
		pol, err := sched.New(spec)
		if err != nil {
			return policyBench{}, err
		}
		t0 := time.Now()
		cfg := sim.Config{SystemSize: 250, Preemptable: spec.PreemptTrigger != ""}
		res, err := sim.New(cfg, pol).Run(jobs)
		if err != nil {
			return policyBench{}, err
		}
		el := time.Since(t0)
		if best.RunMillis == 0 || el.Seconds()*1000 < best.RunMillis {
			best.RunMillis = el.Seconds() * 1000
			best.Events = res.Events
			best.NsPerEvt = float64(el.Nanoseconds()) / float64(res.Events)
		}
	}
	return best, nil
}

func benchSweep(jobs []*job.Job, parallel int) (sweepBench, error) {
	specs := core.AllSpecs()
	t0 := time.Now()
	runs, err := sweep.Map(parallel, specs,
		func(s core.Spec) string { return s.Key },
		func(_ int, s core.Spec) (*core.Run, error) { return core.Execute(core.StudyConfig{}, s, jobs) })
	if err != nil {
		return sweepBench{}, err
	}
	el := time.Since(t0).Seconds()
	var events int64
	for _, r := range runs {
		events += r.Result.Events
	}
	return sweepBench{
		Runs:         len(runs),
		Jobs:         len(jobs),
		Seconds:      el,
		RunsPerSec:   float64(len(runs)) / el,
		EventsPerSec: float64(events) / el,
		Parallel:     parallel,
	}, nil
}

// benchCache writes three synthetic traces as SWF files, then measures the
// trace-cache's two levels: the load path alone (cold: stream + encode +
// write; warm: decode — best of repeat, summed over the traces) and a whole
// manifest campaign (cold: fresh cache dir, so every source builds its
// cache; warm: second pass over the same dir, so every source loads warm —
// memoization is defeated by rebuilding the sources between passes).
func benchCache(seed int64, repeat, parallel int) (cacheBench, error) {
	dir, err := os.MkdirTemp("", "schedbench-cache")
	if err != nil {
		return cacheBench{}, err
	}
	defer os.RemoveAll(dir)

	const nTraces = 3
	m := &tracecache.Manifest{Path: filepath.Join(dir, "traces.toml")}
	cb := cacheBench{Traces: nTraces}
	for i := 0; i < nTraces; i++ {
		jobs, err := workload.Generate(workload.Config{Seed: seed + int64(i), Scale: 0.05})
		if err != nil {
			return cacheBench{}, err
		}
		cb.Jobs += len(jobs)
		path := filepath.Join(dir, fmt.Sprintf("t%d.swf", i))
		f, err := os.Create(path)
		if err != nil {
			return cacheBench{}, err
		}
		werr := swf.Write(f, swf.FromJobs(jobs, swf.Header{Version: 2, MaxNodes: 1000, UnixStartTime: 878606400}))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return cacheBench{}, werr
		}
		m.Entries = append(m.Entries, tracecache.ManifestEntry{
			Name: fmt.Sprintf("t%d", i), Path: path,
		})
	}

	// Load path alone, best-of-repeat per level. The cold pass rebuilds the
	// cache file every iteration; the warm pass decodes the one it left.
	cacheDir := filepath.Join(dir, "cache")
	var coldBest, warmBest time.Duration
	for r := 0; r < repeat; r++ {
		var cold, warm time.Duration
		for _, e := range m.Entries {
			cp := tracecache.CachePath(cacheDir, e.Path)
			t0 := time.Now()
			jobs, meta, err := tracecache.BuildFromSWF(e.Path, swf.ConvertOptions{})
			if err == nil {
				err = tracecache.WriteFile(cp, jobs, meta)
			}
			if err != nil {
				return cacheBench{}, err
			}
			cold += time.Since(t0)
			t0 = time.Now()
			if _, _, err := tracecache.ReadFile(cp); err != nil {
				return cacheBench{}, err
			}
			warm += time.Since(t0)
		}
		if coldBest == 0 || cold < coldBest {
			coldBest = cold
		}
		if warmBest == 0 || warm < warmBest {
			warmBest = warm
		}
	}
	cb.ColdJobsPerSec = float64(cb.Jobs) / coldBest.Seconds()
	cb.WarmJobsPerSec = float64(cb.Jobs) / warmBest.Seconds()

	// Whole-campaign throughput: two policies over the manifest's traces.
	// A fresh cache dir makes the first pass cold end to end.
	campDir := filepath.Join(dir, "campaign-cache")
	var specs []core.Spec
	for _, key := range []string{"cons.nomax", "consdyn.nomax"} {
		s, err := core.SpecByKey(key)
		if err != nil {
			return cacheBench{}, err
		}
		specs = append(specs, s)
	}
	runCampaign := func() (float64, error) {
		camp := sweep.Campaign{
			Sources:   scenario.ManifestSources(m, m.Entries, campDir),
			Scenarios: []scenario.Scenario{scenario.Baseline()},
			Seeds:     []int64{seed},
			Specs:     specs,
			Parallel:  parallel,
		}
		t0 := time.Now()
		cells, err := camp.Run()
		if err != nil {
			return 0, err
		}
		return float64(len(cells)*len(specs)) / time.Since(t0).Seconds(), nil
	}
	if cb.ColdRunsPerSec, err = runCampaign(); err != nil {
		return cacheBench{}, err
	}
	if cb.WarmRunsPerSec, err = runCampaign(); err != nil {
		return cacheBench{}, err
	}
	return cb, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "schedbench:", err)
	os.Exit(1)
}
