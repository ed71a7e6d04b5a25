// Command cplantsim runs one scheduling policy over a workload trace and
// prints the full metric summary: the user metrics (wait, turnaround,
// bounded slowdown), the system metrics (utilization, loss of capacity,
// makespan) and the hybrid-FST fairness metrics (percent unfair jobs,
// average miss time, per-width breakdowns).
//
// Usage:
//
//	cplantsim -policy cplant24.nomax.all -in ross.swf
//	cplantsim -policy cons.72max -synthetic -seed 42
//	cplantsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"fairsched/internal/core"
	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
	"fairsched/internal/sim"
	"fairsched/internal/stats"
	"fairsched/internal/swf"
	"fairsched/internal/workload"
)

func main() {
	var (
		policy    = flag.String("policy", "cplant24.nomax.all", "policy name (see -list) or component chain (e.g. 'order=sjf+bf=easy')")
		in        = flag.String("in", "", "input SWF trace (conflicts with -synthetic)")
		synthetic = flag.Bool("synthetic", false, "generate the synthetic CPlant/Ross trace instead of reading one")
		seed      = flag.Int64("seed", 42, "synthetic workload seed")
		scale     = flag.Float64("scale", 1.0, "synthetic workload scale")
		nodes     = flag.Int("nodes", 0, "system size (default 1000 or trace MaxNodes)")
		decay     = flag.Float64("decay", 0.5, "fairshare decay factor per interval")
		interval  = flag.Int64("decay-interval", 24*3600, "fairshare decay interval (seconds)")
		kill      = flag.String("kill", "never", "wall-clock-limit kill policy: never, when-needed, always")
		split     = flag.String("split", "upfront", "max-runtime split mode: upfront, staggered, chained")
		equality  = flag.Bool("equality", false, "also compute the resource-equality metric")
		review    = flag.Bool("review", false, "also print the §4-review metrics (turnaround stddev, Jain indices, per-user table)")
		jsonOut   = flag.Bool("json", false, "emit the summary as JSON instead of text")
		list      = flag.Bool("list", false, "list policy names and exit")
		keepCanc  = flag.Bool("keep-cancelled", false, "keep cancelled (status 5) trace records, the pre-filtering behaviour")
	)
	flag.Parse()
	if err := fairshare.CheckDecayFactor(*decay); err != nil {
		badFlag("decay", err)
	}
	if err := (fairshare.Config{DecayInterval: *interval}).Validate(); err != nil {
		badFlag("decay-interval", err)
	}

	if *list {
		fmt.Println(strings.Join(core.SpecKeys(), "\n"))
		return
	}
	spec, err := core.SpecByKey(*policy)
	if err != nil {
		fatal(err)
	}

	var jobs []*job.Job
	var epoch int64
	systemSize := *nodes
	switch {
	case *synthetic && *in != "":
		fatal(fmt.Errorf("-in and -synthetic are mutually exclusive"))
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		trace, err := swf.Parse(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		jobs = trace.JobsWith(swf.ConvertOptions{KeepCancelled: *keepCanc})
		epoch = fairshare.EpochFor(trace.Header.UnixStartTime, *interval)
		if systemSize <= 0 && trace.Header.MaxNodes > 0 {
			systemSize = trace.Header.MaxNodes
		}
		if systemSize <= 0 {
			systemSize = job.MaxNodes(jobs)
		}
	default:
		jobs, err = workload.Generate(workload.Config{Seed: *seed, SystemSize: systemSize, Scale: *scale})
		if err != nil {
			fatal(err)
		}
	}

	cfg := core.StudyConfig{
		SystemSize:     systemSize,
		Fairshare:      fairshare.Config{DecayFactor: *decay, DecayInterval: *interval},
		FairshareEpoch: epoch,
		Equality:       *equality,
	}
	switch *kill {
	case "never":
		cfg.Kill = sim.KillNever
	case "when-needed":
		cfg.Kill = sim.KillWhenNeeded
	case "always":
		cfg.Kill = sim.KillAlways
	default:
		fatal(fmt.Errorf("unknown -kill %q", *kill))
	}
	switch *split {
	case "upfront":
		cfg.Split = sim.SplitUpfront
	case "staggered":
		cfg.Split = sim.SplitStaggered
	case "chained":
		cfg.Split = sim.SplitChained
	default:
		fatal(fmt.Errorf("unknown -split %q", *split))
	}

	t0 := time.Now()
	run, err := core.Execute(cfg, spec, jobs)
	if err != nil {
		fatal(err)
	}
	s := run.Summary
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("policy              %s\n", s.Policy)
	fmt.Printf("system size         %d nodes\n", s.SystemSize)
	fmt.Printf("jobs                %d scheduled (%d submitted)\n", s.Jobs, len(jobs))
	fmt.Printf("makespan            %s\n", duration(s.Makespan))
	fmt.Printf("utilization         %.1f%%\n", 100*s.Utilization)
	fmt.Printf("loss of capacity    %.2f%%\n", 100*s.LossOfCapacity)
	fmt.Printf("avg wait            %s\n", duration(int64(s.AvgWait)))
	fmt.Printf("avg turnaround      %s\n", duration(int64(s.AvgTurnaround)))
	fmt.Printf("median turnaround   %s\n", duration(int64(s.MedianTurnaround)))
	fmt.Printf("bounded slowdown    %.1f\n", s.AvgBoundedSlowdown)
	fmt.Printf("percent unfair      %.2f%% of jobs, %.2f%% of load (%d of %d)\n",
		s.PercentUnfair, s.PercentUnfairLoad, s.UnfairJobs, s.FairnessJobs)
	fmt.Printf("avg miss time       %s\n", duration(int64(s.AvgMissTime)))
	if run.Equality != nil {
		fmt.Printf("equality deficit    %.0f proc-seconds/job\n", run.Equality.AveragePerJob())
	}
	fmt.Printf("\n%-10s %8s %14s %14s\n", "width", "jobs", "avg miss", "avg turnaround")
	for w := 0; w < job.NumWidthCategories; w++ {
		if s.JobsByWidth[w] == 0 {
			continue
		}
		fmt.Printf("%-10s %8d %14s %14s\n", job.WidthLabels[w], s.JobsByWidth[w],
			duration(int64(s.AvgMissByWidth[w])), duration(int64(s.AvgTATByWidth[w])))
	}
	if *review {
		printReview(run)
	}
	fmt.Printf("\nsimulated %d events in %v\n", run.Result.Events, time.Since(t0).Round(time.Millisecond))
}

// printReview prints the Section 4 "review" metrics the paper contrasts the
// hybrid FST against, plus the miss-time distribution and the heaviest
// users.
func printReview(run *core.Run) {
	res := run.Result
	fmt.Printf("\n--- §4 review metrics ---\n")
	fmt.Printf("turnaround stddev      %s\n", duration(int64(metrics.TurnaroundStdDev(res))))
	fmt.Printf("jain index (service)   %.3f\n", metrics.JainIndexOfUserService(res))
	fmt.Printf("jain index (slowdown)  %.3f\n", metrics.JainIndexOfUserSlowdown(res))

	if run.FST != nil {
		var misses []float64
		for _, r := range res.Records {
			if fst, ok := run.FST[r.Job.ID]; ok && r.Start > fst {
				misses = append(misses, float64(r.Start-fst))
			}
		}
		if len(misses) > 0 {
			fmt.Printf("miss-time percentiles  p50=%s p90=%s p99=%s max=%s (over %d unfair jobs)\n",
				duration(int64(stats.Percentile(misses, 50))),
				duration(int64(stats.Percentile(misses, 90))),
				duration(int64(stats.Percentile(misses, 99))),
				duration(int64(stats.Max(misses))), len(misses))
		}
	}

	per := metrics.ByUser(res)
	sort.Slice(per, func(i, k int) bool { return per[i].ProcSeconds > per[k].ProcSeconds })
	if len(per) > 8 {
		per = per[:8]
	}
	fmt.Printf("\n%-8s %8s %16s %14s %16s\n", "user", "jobs", "proc-hours", "avg wait", "avg turnaround")
	for _, u := range per {
		fmt.Printf("%-8d %8d %16.0f %14s %16s\n", u.User, u.Jobs, u.ProcSeconds/3600,
			duration(int64(u.AvgWait)), duration(int64(u.AvgTurnaround)))
	}
}

func duration(seconds int64) string {
	return (time.Duration(seconds) * time.Second).String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cplantsim:", err)
	os.Exit(1)
}

// badFlag reports an invalid flag value and exits 2, the flag package's
// usage-error status.
func badFlag(name string, err error) {
	fmt.Fprintf(os.Stderr, "cplantsim: -%s: %v\n", name, err)
	os.Exit(2)
}
