package hypothesis

import (
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
	// Cells and Policies describe the expanded matrix, for report headers.
	Cells    int
	Policies int
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

// cellKey indexes the campaign's cells by the axes a claim addresses.
type cellKey struct {
	Source   string
	Scenario string
	Seed     int64
}

// cellData is one cell's per-policy summaries.
type cellData struct {
	summaries map[string]*metrics.Summary
	slos      map[string]*slo.Summary
}

// RunCampaign expands the claims into one campaign — the union of their
// scenarios and seeds as the matrix, the union of their policies in every
// cell — runs it through sweep.Campaign and evaluates every claim against
// the resulting summaries.
//
// Specs must be normalized (Parse and Register output always is). The
// matrix axes are assembled deterministically: scenarios and policies in
// first-appearance order over the claims, seeds ascending — so the campaign
// (and its report) is a pure function of the claim batch.
//
// A failed cell does not discard the batch: the claims that read it report
// an ERROR row on that seed, every other claim keeps its verdicts, and the
// aggregated *sweep.Errors comes back alongside the Evaluation. A nil
// Evaluation means the batch itself was invalid.
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

	// Union the axes in deterministic order. The trace axis: unscoped
	// claims run on the default Source; a trace clause selects a named
	// source, in first-appearance order over the claims.
	var (
		scenNames  []string
		scenSeen   = map[string]bool{}
		polKeys    []string
		polSeen    = map[string]bool{}
		seedSet    = map[int64]bool{}
		seedsUnion []int64
		srcs       []scenario.Source
		srcSeen    = map[string]bool{}
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
	for _, s := range specs {
		for _, t := range s.Terms {
			for _, side := range []Side{t.Left, t.Right} {
				if side.IsConst {
					continue
				}
				if !scenSeen[side.Config.Scenario] {
					scenSeen[side.Config.Scenario] = true
					scenNames = append(scenNames, side.Config.Scenario)
				}
				if !polSeen[side.Config.Policy] {
					polSeen[side.Config.Policy] = true
					polKeys = append(polKeys, side.Config.Policy)
				}
			}
		}
		for _, seed := range s.EffectiveSeeds() {
			if !seedSet[seed] {
				seedSet[seed] = true
				seedsUnion = append(seedsUnion, seed)
			}
		}
	}
	sort.Slice(seedsUnion, func(i, j int) bool { return seedsUnion[i] < seedsUnion[j] })

	scens := make([]scenario.Scenario, len(scenNames))
	for i, name := range scenNames {
		sc, err := scenario.Parse(name)
		if err != nil {
			return nil, fmt.Errorf("hypothesis: scenario %q: %w", name, err)
		}
		scens[i] = sc
	}
	pols := make([]core.Spec, len(polKeys))
	for i, key := range polKeys {
		sp, err := core.SpecByKey(key)
		if err != nil {
			return nil, fmt.Errorf("hypothesis: policy %q: %w", key, err)
		}
		pols[i] = sp
	}

	cells, runErr := sweep.Campaign{
		Sources:   srcs,
		Scenarios: scens,
		Seeds:     seedsUnion,
		Specs:     pols,
		Study:     opt.Study,
		Parallel:  opt.Parallel,
	}.Run()

	// Index the cells. Failed cells (nil slots) simply stay unindexed; the
	// claims that need them report the miss per seed.
	index := make(map[cellKey]*cellData, len(cells))
	for _, cell := range cells {
		if cell == nil {
			continue
		}
		cd := &cellData{
			summaries: make(map[string]*metrics.Summary, len(cell.Policies)),
			slos:      make(map[string]*slo.Summary, len(cell.Policies)),
		}
		for i, pol := range cell.Policies {
			cd.summaries[pol] = cell.Summaries[i]
			if cell.SLOs != nil {
				cd.slos[pol] = cell.SLOs[i]
			}
		}
		index[cellKey{Source: cell.Source, Scenario: cell.Scenario, Seed: cell.Seed}] = cd
	}

	names := make([]string, len(srcs))
	for i, src := range srcs {
		names[i] = src.Name
	}
	eval := &Evaluation{
		Source:   strings.Join(names, ", "),
		Cells:    len(srcs) * len(scens) * len(seedsUnion),
		Policies: len(pols),
	}
	for _, s := range specs {
		spec := s
		eval.Outcomes = append(eval.Outcomes, Evaluate(spec, func(seed int64) Resolver {
			return func(cfg Config, metric string) (float64, error) {
				key := cellKey{Source: srcName(spec.Trace), Scenario: cfg.Scenario, Seed: seed}
				cd, ok := index[key]
				if !ok {
					return 0, fmt.Errorf("hypothesis: cell (%s × %s × seed %d) did not complete", key.Source, cfg.Scenario, seed)
				}
				return resolveMetric(cd.summaries[cfg.Policy], cd.slos[cfg.Policy], metric)
			}
		}))
	}
	return eval, runErr
}
