package experiments

import (
	"fmt"
	"io"

	"fairsched/internal/hypothesis"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
)

// Seed-sweep robustness: the paper is a single-trace case study, so every
// bar chart carries trace-level variance. SeedSweep re-generates the
// synthetic workload under several seeds, re-runs the nine policies and
// tallies how often each Results-section claim holds — the evidence behind
// EXPERIMENTS.md's "robust across seeds" statements.

// ClaimTally is one claim's pass count across a sweep.
type ClaimTally struct {
	ID        string
	Statement string
	Passed    int
	Total     int
}

// SeedSweep runs the full study once per seed and tallies the claims: a
// campaign over the synthetic source with the seeds as its seed axis (the
// workload config's Seed field is overridden per cell), fanned out on
// cfg.Parallel workers. The tally is independent of the parallelism.
//
// A failing seed does not void the sweep: its cell is dropped from the
// tally (Total counts only fully simulated seeds) and the aggregated error
// is returned alongside the surviving tally, so a long campaign keeps its
// results even when one trace diverges.
func SeedSweep(cfg Config, seeds []int64) ([]ClaimTally, error) {
	claims := PaperHypotheses()
	tally := make([]ClaimTally, len(claims))
	for i, c := range claims {
		tally[i] = ClaimTally{ID: c.ID, Statement: c.Statement}
	}
	wl := cfg.Workload
	if wl.SystemSize <= 0 {
		wl.SystemSize = cfg.Study.SystemSize
	}
	cells, err := sweep.Campaign{
		Sources:  []scenario.Source{scenario.Synthetic(wl)},
		Seeds:    seeds,
		Study:    cfg.Study,
		Parallel: cfg.Parallel,
	}.Run()
	for _, cell := range cells {
		if cell == nil {
			continue // failed seed: excluded from the tally
		}
		resolve := resultsResolver(assemble(nil, cell))
		for i, c := range claims {
			tally[i].Total++
			if hypothesis.EvaluateSeed(c, cell.Seed, resolve).Pass {
				tally[i].Passed++
			}
		}
	}
	if err != nil {
		return tally, fmt.Errorf("experiments: %w", err)
	}
	return tally, nil
}

// RenderSeedSweep writes the tally as a table, most robust claims first
// order preserved (paper order). A claim is only unanimous over seeds that
// actually completed — a sweep where every seed failed tallies nothing and
// must not render as maximal robustness.
func RenderSeedSweep(w io.Writer, tally []ClaimTally, seeds []int64) {
	fmt.Fprintf(w, "SEED SWEEP — claim robustness across %d synthetic traces %v\n", len(seeds), seeds)
	simulated := 0
	if len(tally) > 0 {
		simulated = tally[0].Total
	}
	if simulated < len(seeds) {
		fmt.Fprintf(w, "  (%d of %d seeds completed; failed seeds are excluded from the tally)\n", simulated, len(seeds))
	}
	pass := 0
	for _, t := range tally {
		marker := " "
		if t.Total > 0 && t.Passed == t.Total {
			marker = "*"
			pass++
		}
		fmt.Fprintf(w, "  %s %d/%d %-32s %s\n", marker, t.Passed, t.Total, t.ID, t.Statement)
	}
	fmt.Fprintf(w, "  %d/%d claims hold under every seed (* = unanimous)\n", pass, len(tally))
}
