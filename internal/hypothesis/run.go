package hypothesis

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"fairsched/internal/core"
	"fairsched/internal/metrics"
	"fairsched/internal/scenario"
	"fairsched/internal/slo"
	"fairsched/internal/sweep"
)

// CampaignOptions configures how a batch of claims expands into a campaign.
type CampaignOptions struct {
	// Source is the workload every unscoped configuration runs on (a trace
	// file or a synthetic generator).
	Source scenario.Source
	// Sources are the named traces claims may scope to with a trace clause
	// (typically scenario.ManifestSources over a trace-set manifest). A
	// claim's Trace must match one Name here; unscoped claims keep running
	// on Source.
	Sources []scenario.Source
	// Study configures the simulator (system size, fairshare decay, ...).
	Study core.StudyConfig
	// Parallel bounds the worker pool. It is a pure scheduling knob: the
	// evaluation, and any report rendered from it, is byte-identical at
	// every setting (the campaign contract).
	Parallel int
	// Seeds overrides every claim's seeds clause when non-empty (the CLI's
	// -seeds flag).
	Seeds []int64
}

// Evaluation is the outcome of running a batch of claims as one campaign.
type Evaluation struct {
	Source   string
	Outcomes []Outcome // spec order
	// Cells counts the distinct (trace, scenario, seed) cells run and Runs
	// the policy runs over them, for report headers.
	Cells int
	Runs  int
}

// Confirmed, Supported and Refuted count outcomes by status.
func (e *Evaluation) Confirmed() int { return e.countStatus(StatusConfirmed) }
func (e *Evaluation) Supported() int { return e.countStatus(StatusSupported) }
func (e *Evaluation) Refuted() int   { return e.countStatus(StatusRefuted) }

func (e *Evaluation) countStatus(st Status) int {
	n := 0
	for i := range e.Outcomes {
		if e.Outcomes[i].Status() == st {
			n++
		}
	}
	return n
}

// ReferenceHolds counts the claims whose reference seed passed.
func (e *Evaluation) ReferenceHolds() int {
	n := 0
	for i := range e.Outcomes {
		if e.Outcomes[i].Reference().Pass {
			n++
		}
	}
	return n
}

// GateFailed returns the tier ≤ maxTier claims that refuted — the claims a
// CI gate at that tier fails on.
func (e *Evaluation) GateFailed(maxTier int) []string {
	var ids []string
	for i := range e.Outcomes {
		o := &e.Outcomes[i]
		if o.Spec.EffectiveTier() <= maxTier && o.Status() == StatusRefuted {
			ids = append(ids, o.Spec.ID)
		}
	}
	return ids
}

// runKey indexes the campaign's policy runs by the axes a claim
// addresses.
type runKey struct {
	Source   string
	Scenario string
	Seed     int64
	Policy   string
}

// runData is one policy run's summaries.
type runData struct {
	summary *metrics.Summary
	slo     *slo.Summary
}

// block is one sweep.Campaign of the expansion: a (trace, scenario) pair
// with the policies that share one seed set there.
type block struct {
	src   scenario.Source
	scen  scenario.Scenario
	name  string // the scenario as the claims spell it
	seeds []int64
	specs []core.Spec
}

// RunCampaign expands the claims into the policy runs they name and
// evaluates every claim against the resulting summaries. A (trace,
// scenario, policy) triple runs exactly on the union of the seeds of the
// claims that name it; the triples of one (trace, scenario) pair with the
// same seeds run as one sweep.Campaign, so each cell's workload loads once
// for all of them. Nothing else runs: a claim's policies never run in
// another claim's scenarios.
//
// Specs must be normalized (Parse and Register output always is). The
// expansion is assembled deterministically: triples in first-appearance
// order over the claims, seeds ascending — so the campaigns (and the
// report) are a pure function of the claim batch, and each run's summary
// is the one a full (trace × scenario × seed × policy) product would give.
//
// A failed cell does not discard the batch: the claims that read it report
// an ERROR row on that seed, every other claim keeps its verdicts, and the
// aggregated *sweep.Errors comes back alongside the Evaluation. A policy
// the study's topology cannot run fails every claim before any cell loads.
// A nil Evaluation means the batch itself was invalid.
func RunCampaign(specs []Spec, opt CampaignOptions) (*Evaluation, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("hypothesis: no claims to run")
	}
	for i := range specs {
		norm, err := specs[i].Normalize()
		if err != nil {
			return nil, err
		}
		specs[i] = norm
		if len(opt.Seeds) > 0 {
			specs[i].Seeds = append([]int64(nil), opt.Seeds...)
			if specs[i], err = specs[i].Normalize(); err != nil {
				return nil, err
			}
		}
	}

	// The trace axis: unscoped claims run on the default Source; a trace
	// clause selects a named source, in first-appearance order over the
	// claims.
	var (
		srcs    []scenario.Source
		srcSeen = map[string]bool{}
	)
	srcName := func(trace string) string {
		if trace == "" {
			return opt.Source.Name
		}
		return trace
	}
	for _, s := range specs {
		if s.Trace == "" {
			if !srcSeen[opt.Source.Name] {
				if opt.Source.Load == nil {
					return nil, fmt.Errorf("hypothesis: claim %s names no trace and the campaign has no default source", s.ID)
				}
				srcSeen[opt.Source.Name] = true
				srcs = append(srcs, opt.Source)
			}
		} else if !srcSeen[s.Trace] {
			found := false
			for _, src := range opt.Sources {
				if src.Name == s.Trace {
					srcSeen[s.Trace] = true
					srcs = append(srcs, src)
					found = true
					break
				}
			}
			if !found {
				avail := make([]string, len(opt.Sources))
				for i, src := range opt.Sources {
					avail[i] = src.Name
				}
				return nil, fmt.Errorf("hypothesis: claim %s: no trace %q in the campaign's trace set (have: %v)", s.ID, s.Trace, avail)
			}
		}
	}
	srcByName := make(map[string]scenario.Source, len(srcs))
	for _, src := range srcs {
		srcByName[src.Name] = src
	}

	// The (trace, scenario, policy) triples the claims name, each with the
	// union of its claims' seeds.
	type triple struct{ src, scen, pol string }
	var (
		triples []triple
		seedsOf = map[triple]map[int64]bool{}
	)
	for _, s := range specs {
		for _, t := range s.Terms {
			for _, side := range []Side{t.Left, t.Right} {
				if side.IsConst {
					continue
				}
				tr := triple{srcName(s.Trace), side.Config.Scenario, side.Config.Policy}
				if seedsOf[tr] == nil {
					seedsOf[tr] = map[int64]bool{}
					triples = append(triples, tr)
				}
				for _, seed := range s.EffectiveSeeds() {
					seedsOf[tr][seed] = true
				}
			}
		}
	}
	// Resolve every block's axes before any cell loads.
	var (
		blocks   []*block
		blockOf  = map[string]*block{}
		cells    = map[runKey]bool{} // Policy left empty: one entry per cell
		runs     int
		admitErr error
	)
	for _, tr := range triples {
		seeds := make([]int64, 0, len(seedsOf[tr]))
		for seed := range seedsOf[tr] {
			seeds = append(seeds, seed)
			cells[runKey{Source: tr.src, Scenario: tr.scen, Seed: seed}] = true
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		runs += len(seeds)
		key := fmt.Sprint(tr.src, "\x00", tr.scen, "\x00", seeds)
		b := blockOf[key]
		if b == nil {
			sc, err := scenario.Parse(tr.scen)
			if err != nil {
				return nil, fmt.Errorf("hypothesis: scenario %q: %w", tr.scen, err)
			}
			b = &block{src: srcByName[tr.src], scen: sc, name: tr.scen, seeds: seeds}
			blockOf[key] = b
			blocks = append(blocks, b)
		}
		sp, err := core.SpecByKey(tr.pol)
		if err != nil {
			return nil, fmt.Errorf("hypothesis: policy %q: %w", tr.pol, err)
		}
		if err := opt.Study.Topology.Admit(sp); err != nil && admitErr == nil {
			admitErr = err
		}
		b.specs = append(b.specs, sp)
	}

	index := map[runKey]runData{}
	runErr := admitErr
	var failed sweep.Errors
	for _, b := range blocks {
		if admitErr != nil {
			break
		}
		sums, err := sweep.Campaign{
			Sources:   []scenario.Source{b.src},
			Scenarios: []scenario.Scenario{b.scen},
			Seeds:     b.seeds,
			Specs:     b.specs,
			Study:     opt.Study,
			Parallel:  opt.Parallel,
		}.Run()
		var errs *sweep.Errors
		switch {
		case errors.As(err, &errs):
			failed.Runs = append(failed.Runs, errs.Runs...)
		case err != nil && runErr == nil:
			runErr = err
		}
		// Failed cells (nil slots) simply stay unindexed; the claims that
		// need them report the miss per seed.
		for _, cell := range sums {
			if cell == nil {
				continue
			}
			for k, pol := range cell.Policies {
				rd := runData{summary: cell.Summaries[k]}
				if cell.SLOs != nil {
					rd.slo = cell.SLOs[k]
				}
				index[runKey{Source: cell.Source, Scenario: b.name, Seed: cell.Seed, Policy: pol}] = rd
			}
		}
	}
	if runErr == nil && len(failed.Runs) > 0 {
		runErr = &failed
	}

	names := make([]string, len(srcs))
	for i, src := range srcs {
		names[i] = src.Name
	}
	eval := &Evaluation{Source: strings.Join(names, ", "), Cells: len(cells), Runs: runs}
	for _, s := range specs {
		spec := s
		eval.Outcomes = append(eval.Outcomes, Evaluate(spec, func(seed int64) Resolver {
			return func(cfg Config, metric string) (float64, error) {
				key := runKey{Source: srcName(spec.Trace), Scenario: cfg.Scenario, Seed: seed, Policy: cfg.Policy}
				rd, ok := index[key]
				if !ok {
					return 0, fmt.Errorf("hypothesis: cell (%s × %s × seed %d) did not complete", key.Source, cfg.Scenario, seed)
				}
				return resolveMetric(rd.summary, rd.slo, metric)
			}
		}))
	}
	return eval, runErr
}
