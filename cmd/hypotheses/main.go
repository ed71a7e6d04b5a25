// Command hypotheses runs the declarative claim harness: every registered
// claim (the paper's 16 Results-section statements, plus any ad-hoc -spec)
// expands into one campaign over the union of the claims' scenarios, seeds
// and policies, and the per-seed verdicts render as a deterministic
// FINDINGS report — byte-identical at every -parallel setting.
//
// Usage:
//
//	hypotheses                        # all claims, full FINDINGS report
//	hypotheses -list-claims           # the claim registry, canonical grammar forms
//	hypotheses -tier 1                # only the invariant-grade claims (CI gate)
//	hypotheses -claim fig14-consdyn-fewest-unfair
//	hypotheses -spec 'claim quick: consdyn.nomax < cplant24.nomax.all on unfair_pct'
//	hypotheses -seeds 42..44 -scale 0.25      # quick pass, overriding seeds clauses
//	hypotheses -markdown              # the EXPERIMENTS.md checklist table
//	hypotheses -trace ross.swf        # claims over a real SWF trace
//	hypotheses -manifest traces.toml -cache-dir .cache  # trace-scoped claims
//	hypotheses -cpuprofile cpu.out    # profile the run (go tool pprof cpu.out)
//	hypotheses -memprofile mem.out    # allocation profile of the run
//
// Exit status: 1 when any tier ≤ 2 claim among those run is REFUTED (its
// reference seed failed), or when any campaign cell failed (the report
// still renders, with ERROR rows on the seeds that read it); tier 3 claims
// are recorded but never gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"fairsched/internal/core"
	_ "fairsched/internal/experiments" // registers the paper's claims
	"fairsched/internal/fairshare"
	"fairsched/internal/hypothesis"
	"fairsched/internal/scenario"
	"fairsched/internal/tracecache"
	"fairsched/internal/workload"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

// gateTier is the highest tier that fails the process: tiers 1 and 2 must
// at least hold on their reference seed; tier 3 is recorded, never gating.
const gateTier = 2

func main() {
	var claimIDs, specTexts stringList
	var (
		list     = flag.Bool("list-claims", false, "list the registered claims (canonical grammar form, tier, statement), then exit")
		tier     = flag.Int("tier", 0, "run only claims with tier <= N (0: all)")
		markdown = flag.Bool("markdown", false, "emit the claim-checklist Markdown table (for EXPERIMENTS.md) instead of the FINDINGS report")
		seedsStr = flag.String("seeds", "", "override every claim's seeds clause (grammar: 42..51, 1+3+5..9)")
		trace    = flag.String("trace", "", "run the claims over an SWF trace file (default: the calibrated synthetic trace)")
		manifest = flag.String("manifest", "", "trace-set manifest (traces.toml); its entries become the named sources trace clauses select")
		cacheDir = flag.String("cache-dir", "", "binary trace-cache directory for manifest sources (empty: stream SWF every load)")
		scale    = flag.Float64("scale", 1.0, "synthetic workload scale")
		nodes    = flag.Int("nodes", 0, "system size (default 1000, or the trace's MaxNodes)")
		burst    = flag.Float64("burst", 0, "synthetic workload burst gamma (default 0.3)")
		decay    = flag.Float64("decay", 0.5, "fairshare decay factor")
		parallel = flag.Int("parallel", 0, "worker pool size (0: one per CPU; 1: serial — output is byte-identical at every setting)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile of the whole run to this file at exit (inspect with go tool pprof)")
	)
	flag.Var(&claimIDs, "claim", "run one registered claim by id (repeatable)")
	flag.Var(&specTexts, "spec", "run an ad-hoc claim written in the grammar (repeatable)")
	flag.Parse()
	if err := fairshare.CheckDecayFactor(*decay); err != nil {
		badFlag("decay", err)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
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
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		stopCPU := stopProfile
		stopProfile = func() {
			stopCPU()
			runtime.GC() // settle the in-use statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "hypotheses: memprofile:", err)
			}
			f.Close()
		}
	}
	defer stopProfile()

	if *list {
		for _, s := range hypothesis.Registered() {
			fmt.Printf("%s (tier %d)\n", s.ID, s.EffectiveTier())
			fmt.Printf("  %s\n", s.Canonical())
			if s.Statement != "" {
				fmt.Printf("  %s\n", s.Statement)
			}
		}
		return
	}

	specs, err := selectSpecs(claimIDs, specTexts, *tier)
	if err != nil {
		fatal(err)
	}

	opt := hypothesis.CampaignOptions{
		Study: core.StudyConfig{
			SystemSize: *nodes,
			Fairshare:  fairshare.Config{DecayFactor: *decay},
		},
		Parallel: *parallel,
	}
	if *seedsStr != "" {
		seeds, err := hypothesis.ParseSeeds(*seedsStr)
		if err != nil {
			fatal(err)
		}
		opt.Seeds = seeds
	}
	if *trace != "" {
		opt.Source = scenario.TraceFile(*trace)
	} else {
		opt.Source = scenario.Synthetic(workload.Config{
			Scale: *scale, SystemSize: *nodes, BurstGamma: *burst,
		})
	}
	if *manifest != "" {
		m, err := tracecache.LoadManifest(*manifest)
		if err != nil {
			fatal(err)
		}
		opt.Sources = scenario.ManifestSources(m, m.Entries, *cacheDir)
	}

	eval, err := hypothesis.RunCampaign(specs, opt)
	if eval == nil {
		fatal(err)
	}
	if *markdown {
		hypothesis.RenderMarkdown(os.Stdout, eval)
	} else {
		hypothesis.RenderFindings(os.Stdout, eval)
	}
	failed := eval.GateFailed(gateTier)
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "hypotheses: %d tier<=%d claim(s) refuted: %s\n",
			len(failed), gateTier, strings.Join(failed, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hypotheses:", err)
	}
	if len(failed) > 0 || err != nil {
		stopProfile()
		os.Exit(1)
	}
}

// selectSpecs resolves which claims to run: explicit -claim ids and -spec
// texts if any were given, the whole registry otherwise, with the -tier
// filter applied last.
func selectSpecs(claimIDs, specTexts stringList, tier int) ([]hypothesis.Spec, error) {
	var specs []hypothesis.Spec
	for _, id := range claimIDs {
		s, ok := hypothesis.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown claim %q (see -list-claims)", id)
		}
		specs = append(specs, s)
	}
	for _, text := range specTexts {
		s, err := hypothesis.Parse(text)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	if len(claimIDs) == 0 && len(specTexts) == 0 {
		specs = hypothesis.Registered()
	}
	if tier > 0 {
		kept := specs[:0]
		for _, s := range specs {
			if s.EffectiveTier() <= tier {
				kept = append(kept, s)
			}
		}
		specs = kept
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no claims selected")
	}
	return specs, nil
}

// stopProfile flushes the -cpuprofile and -memprofile outputs; every
// os.Exit path calls it, since os.Exit skips deferred calls.
var stopProfile = func() {}

func fatal(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "hypotheses:", err)
	os.Exit(1)
}

// badFlag reports an invalid flag value and exits 2, the flag package's
// usage-error status.
func badFlag(name string, err error) {
	fmt.Fprintf(os.Stderr, "hypotheses: -%s: %v\n", name, err)
	os.Exit(2)
}
