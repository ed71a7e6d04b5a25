// Command experiments regenerates every table and figure of the paper's
// evaluation: Tables 1-2 and Figures 3-7 (workload characterization) and
// Figures 8-19 (the nine-policy fairness study), followed by a paper-vs-
// measured comparison (cmd/hypotheses judges the Results-section claims).
// It is also the campaign driver: a (trace × scenario × policy × seed)
// matrix swept with streamed, memory-bounded execution.
//
// Usage:
//
//	experiments                 # full-scale sweep, one worker per CPU
//	experiments -parallel 1     # serial sweep (byte-identical output)
//	experiments -scale 0.25     # quick quarter-scale sweep
//	experiments -in ross.swf    # sweep over an existing trace
//	experiments -markdown       # also emit the paper-vs-measured table as Markdown
//	experiments -cpuprofile cpu.out   # profile the run (go tool pprof cpu.out)
//	experiments -memprofile mem.out   # allocation profile of the run
//
// Campaign mode (any -trace, -scenario, -policy, -window or -seeds flag):
//
//	experiments -list-scenarios                  # show the built-in scenarios
//	experiments -list-policies                   # show the policy registry + spec grammar
//	experiments -scenario baseline -scenario load-scaled
//	experiments -seeds 10                        # the nine policies over 10 synthetic seeds
//	experiments -trace ross.swf -trace kth.swf -scenario estimate-perturbed
//	experiments -scenario 'load=1.5+perturb=3' -window 1w..5w -seeds 3
//	experiments -policy cplant24.nomax.all -policy 'order=sjf+bf=easy+starve=24h.all'
//	experiments -list-slos               # show the per-user SLO grammar
//	experiments -scenario slo-tiered     # built-in tiered wait-time SLOs
//	experiments -slo 'p50:2h,p90:24h,default:96h'   # tag users in every scenario
//	experiments -topology 'part=a:600,part=b:400,queue=x:part=a,queue=y:part=b' \
//	    -scenario 'queue=p50:x,default:y'           # partitioned machine, routed users
//
// Archive-scale campaigns name their traces in a manifest instead of
// repeating -trace paths; -cache-dir adds the binary trace cache:
//
//	experiments -manifest traces.toml -list-traces   # show the trace set
//	experiments -manifest traces.toml -cache-dir .fairsched-cache
//	experiments -manifest traces.toml -trace KTH-SP2 -trace CTC-SP2
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/fairshare"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
	"fairsched/internal/swf"
	"fairsched/internal/topology"
	"fairsched/internal/tracecache"
	"fairsched/internal/workload"
)

// stringList accumulates a repeatable string flag.
type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var traces, scenarios, policies stringList
	var (
		in       = flag.String("in", "", "input SWF trace (default: generate the synthetic trace)")
		seed     = flag.Int64("seed", 42, "synthetic workload / scenario seed")
		scale    = flag.Float64("scale", 1.0, "synthetic workload scale")
		nodes    = flag.Int("nodes", 0, "system size (default: the trace's MaxNodes, else MaxProcs, else 1000 widened to the widest job)")
		burst    = flag.Float64("burst", 0, "workload burst gamma (default 0.3)")
		decay    = flag.Float64("decay", 0.5, "fairshare decay factor")
		csv      = flag.String("csv", "", "also export every artifact as CSV into this directory")
		mcmp     = flag.Bool("metrics", false, "also compare the §4 fairness metrics (hybrid vs CONS-P) across all policies")
		sweepN   = flag.Int("seeds", 0, "campaign: seed count, from -seed upward (claim robustness across seeds: cmd/hypotheses -seeds)")
		parallel = flag.Int("parallel", 0, "worker pool size for the sweep engine (0: one per CPU; 1: serial)")
		markdown = flag.Bool("markdown", false, "also emit the paper-vs-measured table as Markdown (for EXPERIMENTS.md)")

		window    = flag.String("window", "", "campaign: slice every scenario to START..END (e.g. 1w..5w)")
		sloSpec   = flag.String("slo", "", "campaign: tag users with SLO targets in every scenario (e.g. 'p50:2h,p90:24h,default:96h'; see -list-slos)")
		topoSpec  = flag.String("topology", "", "campaign: partition the machine and hang a queue tree (e.g. 'part=a:600,part=b:400,queue=x:part=a,queue=y:part=b:order=sjf'; route users with -scenario 'queue=...'/'partition=...')")
		listSLOs  = flag.Bool("list-slos", false, "list the SLO grammar and built-in SLO scenarios, then exit")
		listScens = flag.Bool("list-scenarios", false, "list the built-in scenarios and the spec grammar, then exit")
		listPols  = flag.Bool("list-policies", false, "list the policy registry and the spec grammar, then exit (-markdown: README table)")
		keepCanc  = flag.Bool("keep-cancelled", false, "keep cancelled (status 5) trace records, the pre-filtering behaviour")

		manifest   = flag.String("manifest", "", "campaign: trace-set manifest (traces.toml); -trace then selects entries by name")
		cacheDir   = flag.String("cache-dir", "", "binary trace-cache directory for manifest traces (empty: stream SWF every load)")
		listTraces = flag.Bool("list-traces", false, "list the manifest's traces (name, path, overrides), then exit (needs -manifest)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation profile of the whole run to this file at exit (inspect with go tool pprof)")
	)
	flag.Var(&traces, "trace", "campaign: an SWF trace file, or with -manifest a trace name (repeatable; default: the synthetic trace / every manifest entry)")
	flag.Var(&scenarios, "scenario", "campaign: a scenario name or transform chain (repeatable; see -list-scenarios)")
	flag.Var(&policies, "policy", "campaign: a policy name or component chain (repeatable; see -list-policies; default: the paper's nine)")
	flag.Parse()
	if err := fairshare.CheckDecayFactor(*decay); err != nil {
		badFlag("decay", err)
	}
	if *sweepN < 0 {
		badFlag("seeds", fmt.Errorf("%d is negative", *sweepN))
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		stopCPU := stopProfile
		stopProfile = func() {
			stopCPU()
			runtime.GC() // settle the in-use statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
			f.Close()
		}
	}
	defer stopProfile()

	if *listPols {
		if *markdown {
			experiments.PolicyTableMarkdown(os.Stdout)
			return
		}
		experiments.ListPolicies(os.Stdout)
		return
	}
	if *listSLOs {
		fmt.Println("Per-user SLO targets (the slo= scenario transform, or the -slo flag):")
		fmt.Println("  slo=CLASS:TARGET[,CLASS:TARGET]...")
		fmt.Println()
		fmt.Println("Classes:")
		fmt.Println("  p<1..100>   usage-quantile band: users ranked by total processor-seconds")
		fmt.Println("              ascending; p50 is the lightest half, a following p90 the next 40%")
		fmt.Println("  default     every user above the largest quantile band")
		fmt.Println("  user<id>    explicit per-user override (wins over bands)")
		fmt.Println()
		fmt.Println("Targets:")
		fmt.Println("  a duration  maximum acceptable queuing delay (e.g. 2h, 30m, 90s)")
		fmt.Println("  <f>x        maximum acceptable bounded slowdown (e.g. 8x, 2.5x)")
		fmt.Println("  none        explicitly best-effort (tracked nowhere)")
		fmt.Println("  a band may carry both kinds: slo=p50:2h,p50:6x")
		fmt.Println()
		fmt.Println("Built-in SLO scenarios:")
		for _, s := range sortedScenarios() {
			for _, tr := range s.Transforms {
				// The same interface dispatch the campaign engine uses.
				if _, ok := tr.(scenario.SLOProvider); ok {
					fmt.Printf("  %-20s %s\n", s.Name, s.Description)
					break
				}
			}
		}
		fmt.Println()
		fmt.Println("Examples:")
		fmt.Println("  -scenario 'slo=p50:2h,p90:24h,default:96h'")
		fmt.Println("  -scenario load-scaled -slo 'p50:2h,default:96h'   (tags every scenario)")
		fmt.Println("  -scenario slo-tiered -policy easy -policy edf")
		return
	}
	if *listScens {
		fmt.Println("Built-in scenarios:")
		for _, s := range sortedScenarios() {
			fmt.Printf("  %-20s %s\n", s.Name, s.Description)
		}
		fmt.Println("\nAd-hoc chains join transforms with '+':")
		fmt.Println("  load=1.5  window=1d..8d  users=top8  users=3.7.11  perturb=3")
		fmt.Println("  burst=at:7d.jobs:200.nodes:8.runtime:1h[.spread:1h][.est:2h][.user:42]")
		fmt.Println("  slo=p50:2h,p90:24h,default:96h (see -list-slos)")
		fmt.Println("  queue=p50:org/a,default:org/b  partition=p50:fast,default:slow")
		fmt.Println("      route users to queue-tree leaves / partitions (with -topology)")
		fmt.Println("  pop=users:100k,jobs:25k,cohorts:4,weeks:4,churn:0.25,zipf:1.3")
		fmt.Println("      replace the workload with a generated population (k/m suffixes ok)")
		fmt.Println("\nExample: -scenario 'load=1.5+perturb=3'")
		return
	}

	if *listTraces {
		if *manifest == "" {
			fatal(fmt.Errorf("-list-traces needs -manifest"))
		}
		m, err := tracecache.LoadManifest(*manifest)
		if err != nil {
			fatal(err)
		}
		for _, e := range m.Entries {
			fmt.Printf("%-20s %s\n", e.Name, m.ResolvePath(e))
			if e.SHA256 != [32]byte{} {
				fmt.Printf("%-20s   sha256:%x\n", "", e.SHA256)
			}
			var over []string
			if e.MaxNodes > 0 {
				over = append(over, fmt.Sprintf("max-nodes=%d", e.MaxNodes))
			}
			if e.UnixStartTime > 0 {
				over = append(over, fmt.Sprintf("unix-start-time=%d", e.UnixStartTime))
			}
			if e.Epoch > 0 {
				over = append(over, fmt.Sprintf("epoch=%d", e.Epoch))
			}
			if e.KeepCancelled {
				over = append(over, "keep-cancelled")
			}
			if len(over) > 0 {
				fmt.Printf("%-20s   %s\n", "", strings.Join(over, " "))
			}
		}
		return
	}
	if *cacheDir != "" && *manifest == "" {
		fatal(fmt.Errorf("-cache-dir needs -manifest (plain -trace paths always stream)"))
	}

	study := core.StudyConfig{
		SystemSize: *nodes,
		Fairshare:  fairshare.Config{DecayFactor: *decay},
	}
	convOpts := swf.ConvertOptions{KeepCancelled: *keepCanc}

	if *topoSpec != "" {
		topo, err := topology.Parse(*topoSpec)
		if err != nil {
			fatal(err)
		}
		study.Topology = topo
	}

	if len(traces) > 0 || len(scenarios) > 0 || len(policies) > 0 || *window != "" || *sloSpec != "" || *topoSpec != "" || *manifest != "" || *sweepN > 0 {
		// A manifest resolves the trace axis up front: its entries become the
		// named sources, with -trace selecting a subset by name. The sources
		// carry their own per-entry convert options and checksum pins, so the
		// -keep-cancelled flag does not apply to them.
		var sources []scenario.Source
		if *manifest != "" {
			if *in != "" {
				fatal(fmt.Errorf("-in does not combine with -manifest (name the trace in the manifest)"))
			}
			m, err := tracecache.LoadManifest(*manifest)
			if err != nil {
				fatal(err)
			}
			entries, err := m.Select(traces)
			if err != nil {
				fatal(err)
			}
			sources = scenario.ManifestSources(m, entries, *cacheDir)
		}
		// -in is the legacy spelling of -trace; honor it in campaign mode
		// too rather than silently sweeping the synthetic workload.
		if *in != "" {
			traces = append(stringList{*in}, traces...)
		}
		// Refuse flag combinations the campaign path does not implement —
		// exiting 0 without the requested artifacts would be worse.
		switch {
		case *csv != "":
			fatal(fmt.Errorf("-csv is not supported in campaign mode (run the single-trace path)"))
		case *mcmp:
			fatal(fmt.Errorf("-metrics is not supported in campaign mode (run the single-trace path)"))
		case *markdown:
			fatal(fmt.Errorf("-markdown is not supported in campaign mode (run the single-trace path)"))
		}
		runCampaign(sources, traces, scenarios, policies, *window, *sloSpec, study, convOpts, campaignParams{
			seed: *seed, seeds: *sweepN, scale: *scale, burstGamma: *burst,
			systemSize: *nodes, parallel: *parallel,
		})
		if *manifest != "" {
			// CI's cache-determinism step greps this line to assert the
			// second run reused every cache file.
			fmt.Fprintln(os.Stderr, tracecache.DefaultStats.String())
		}
		return
	}

	var res *experiments.Results
	var err error
	if *in != "" {
		wl, lerr := scenario.TraceFileWith(*in, convOpts).Load(0)
		if lerr != nil {
			fatal(lerr)
		}
		study.SystemSize = scenario.SystemSize(wl.Jobs, study.SystemSize, wl.SystemSize)
		// Align fairshare decay to the trace's wall clock (real schedulers
		// decay at fixed times of day, not at offsets from the first job).
		study.FairshareEpoch = fairshare.EpochFor(wl.UnixStartTime, study.Fairshare.DecayInterval)
		res, err = experiments.RunOn(study, wl.Jobs, *parallel)
	} else {
		res, err = experiments.Run(experiments.Config{
			Workload: workload.Config{Seed: *seed, Scale: *scale, SystemSize: *nodes, BurstGamma: *burst},
			Study:    study,
			Parallel: *parallel,
		})
	}
	if err != nil {
		fatal(err)
	}
	experiments.WriteReport(os.Stdout, res)
	if *markdown {
		experiments.WriteMarkdownReport(os.Stdout, res)
	}
	if *mcmp {
		rows, err := experiments.CompareMetrics(study, core.AllSpecs(), res.Jobs, *parallel)
		if err != nil {
			fatal(err)
		}
		experiments.RenderMetricComparison(os.Stdout, rows)
	}
	if *csv != "" {
		if err := experiments.ExportCSV(*csv, res); err != nil {
			fatal(err)
		}
		fmt.Printf("CSV artifacts written to %s\n", *csv)
	}
}

type campaignParams struct {
	seed       int64
	seeds      int
	scale      float64
	burstGamma float64
	systemSize int
	parallel   int
}

// runCampaign assembles and executes the (trace × scenario × seed × policy)
// matrix, rendering one table per cell. Partial failures are reported to
// stderr after the surviving cells.
func runCampaign(sources []scenario.Source, traces, scenSpecs, polSpecs []string, window, sloSpec string, study core.StudyConfig, convOpts swf.ConvertOptions, p campaignParams) {
	if sources == nil {
		for _, path := range traces {
			sources = append(sources, scenario.TraceFileWith(path, convOpts))
		}
	}
	if len(sources) == 0 {
		sources = append(sources, scenario.Synthetic(workload.Config{
			Scale: p.scale, SystemSize: p.systemSize, BurstGamma: p.burstGamma,
		}))
	}
	var scens []scenario.Scenario
	for _, spec := range scenSpecs {
		s, err := scenario.Parse(spec)
		if err != nil {
			fatal(err)
		}
		scens = append(scens, s)
	}
	if len(scens) == 0 {
		scens = append(scens, scenario.Baseline())
	}
	// The policy axis resolves through the same registry + grammar as the
	// scenario axis; an unknown spec fails here with its parse position
	// rather than silently falling back to the default set.
	var specs []core.Spec
	for _, ps := range polSpecs {
		s, err := core.SpecByKey(ps)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, s)
	}
	if window != "" {
		tr, err := scenario.ParseTransform("window=" + window)
		if err != nil {
			fatal(err)
		}
		for i := range scens {
			scens[i] = scens[i].With(tr)
		}
	}
	if sloSpec != "" {
		// Appended last, so its quantile bands rank the users of each
		// scenario's final transformed workload.
		tr, err := scenario.ParseTransform("slo=" + sloSpec)
		if err != nil {
			fatal(err)
		}
		for i := range scens {
			scens[i] = scens[i].With(tr)
		}
	}
	seeds := []int64{p.seed}
	for i := 1; i < p.seeds; i++ {
		seeds = append(seeds, p.seed+int64(i))
	}
	t0 := time.Now()
	nPolicies := len(specs)
	if nPolicies == 0 {
		nPolicies = len(core.AllSpecs())
	}
	cells, err := sweep.Campaign{
		Sources:   sources,
		Scenarios: scens,
		Seeds:     seeds,
		Specs:     specs,
		Study:     study,
		Parallel:  p.parallel,
	}.Run()
	if cells == nil && err != nil {
		fatal(err) // a policy the topology cannot run: nothing was simulated
	}
	experiments.RenderCampaign(os.Stdout, cells)
	fmt.Printf("campaign: %d cells × %d policies in %s\n",
		len(cells), nPolicies, time.Since(t0).Round(time.Millisecond))
	if err != nil {
		fatal(err)
	}
}

// sortedScenarios returns the builtin scenarios sorted by name: listings
// are lookup tables, so they render in a deterministic scan-friendly order
// regardless of registration order.
func sortedScenarios() []scenario.Scenario {
	ss := scenario.Builtins()
	sort.Slice(ss, func(i, k int) bool { return ss[i].Name < ss[k].Name })
	return ss
}

// stopProfile flushes the -cpuprofile and -memprofile outputs; fatal calls
// it too, since os.Exit skips deferred calls.
var stopProfile = func() {}

func fatal(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// badFlag reports an invalid flag value and exits 2, the flag package's
// usage-error status.
func badFlag(name string, err error) {
	fmt.Fprintf(os.Stderr, "experiments: -%s: %v\n", name, err)
	os.Exit(2)
}
