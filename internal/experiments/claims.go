package experiments

import (
	"fmt"

	"fairsched/internal/hypothesis"
)

// The paper's Results-section claims as hypothesis specs. Each claim is
// written in the claim grammar itself (internal/hypothesis), so the harness
// that checks them is the same one any ad-hoc `-spec` claim goes through;
// the prose statements ride along for the reports. The per-claim semantics
// are the exact comparisons the original closures made — the migration is
// pinned by TestPaperHypothesesMatchLegacyClaims, which re-states the old
// closures and demands identical verdicts seed by seed.
//
// Tiers grade robustness (see hypothesis.Spec): tier 1 claims hold
// unanimously over seeds 42–51 and gate CI; tier 2 claims
// (fig8-72h-entry-reduces-unfair, fig8-72max-reduces-unfair-load) hold on
// the reference seed and 9/10 seeds; tier 3 (fig16-cons-helps-wide) is the
// known-fragile wide-category claim recorded in EXPERIMENTS.md.
var paperClaims = []claim{
	{
		"claim fig8-fair-reduces-unfair: cplant24.nomax.fair < cplant24.nomax.all on unfair_pct seeds 42..51",
		"Barring heavy users from the starvation queue reduces the percent of unfair jobs",
	},
	{
		"claim fig8-72h-entry-reduces-unfair: cplant72.nomax.all < cplant24.nomax.all on unfair_pct tier 2 seeds 42..51",
		"Raising the starvation-queue entry delay to 72h reduces the percent of unfair jobs",
	},
	{
		"claim fig8-all-three-lowest: cplant72.72max.fair < cplant24.nomax.all" +
			" and cplant72.72max.fair < cplant24.nomax.fair" +
			" and cplant72.72max.fair < cplant72.nomax.all" +
			" and cplant72.72max.fair < cplant24.72max.all on unfair_pct seeds 42..51",
		"All three minor changes together give the fewest unfair jobs among the minor policies",
	},
	{
		"claim fig8-72max-reduces-unfair-load: cplant24.72max.all < cplant24.nomax.all on unfair_load_pct tier 2 seeds 42..51",
		"72h maximum runtimes reduce unfairly treated work (load-weighted; see EXPERIMENTS.md for the job-count deviation)",
	},
	{
		"claim fig9-72max-reduces-miss: cplant24.72max.all < cplant24.nomax.all on avg_miss seeds 42..51",
		"Introducing 72h maximum runtimes reduces the average miss time",
	},
	{
		"claim fig10-wide-misses-dominate: cplant24.nomax.all#avg_miss_w8 > cplant24.nomax.all#avg_miss_w4" +
			" and cplant24.nomax.all#avg_miss_w9 > cplant24.nomax.all#avg_miss_w4" +
			" and cplant24.nomax.all#avg_miss_w10 > cplant24.nomax.all#avg_miss_w4 seeds 42..51",
		"Baseline misses concentrate in the wide categories (129+ nodes)",
	},
	{
		"claim fig11-72max-improves-tat: cplant24.72max.all < cplant24.nomax.all on avg_tat seeds 42..51",
		"Maximum runtimes improve the average turnaround time",
	},
	{
		"claim fig12-72max-helps-wide-tat: cplant24.72max.all#avg_tat_w8 < cplant24.nomax.all#avg_tat_w8" +
			" and cplant24.72max.all#avg_tat_w9 < cplant24.nomax.all#avg_tat_w9" +
			" and cplant24.72max.all#avg_tat_w10 < cplant24.nomax.all#avg_tat_w10 require 2 seeds 42..51",
		"Maximum runtimes allow better progress (turnaround) for wide jobs",
	},
	{
		"claim fig13-72max-improves-loc: cplant24.72max.all < cplant24.nomax.all on loc seeds 42..51",
		"Maximum runtimes improve (lower) the loss of capacity",
	},
	{
		"claim fig14-consdyn-fewest-unfair: consdyn.nomax <= cplant24.nomax.all" +
			" and consdyn.nomax <= cplant24.nomax.fair" +
			" and consdyn.nomax <= cplant72.nomax.all" +
			" and consdyn.nomax <= cplant24.72max.all" +
			" and consdyn.nomax <= cplant72.72max.fair" +
			" and consdyn.nomax <= cons.nomax" +
			" and consdyn.nomax <= cons.72max" +
			" and consdyn.nomax <= consdyn.72max on unfair_pct seeds 42..51",
		"The conservative dynamic policy has the fewest unfair jobs of all nine policies",
	},
	{
		"claim fig15-cons-nomax-high-miss: cons.nomax > cplant24.nomax.all" +
			" and consdyn.nomax > cplant24.nomax.all on avg_miss seeds 42..51",
		"Without 72h limits the conservative policies have a higher average miss time than the current policy",
	},
	{
		"claim fig15-consdyn-outlier: consdyn.nomax > cplant24.nomax.all*1.5 on avg_miss seeds 42..51",
		"The dynamic conservative policy's misses are the most severe (the 67,881 s outlier bar)",
	},
	{
		"claim fig15-cons72max-improves-miss: cons.72max < cplant24.nomax.all on avg_miss seeds 42..51",
		"Conservative backfilling with 72h limits improves the average miss time over the baseline",
	},
	{
		"claim fig16-cons-helps-wide: cons.nomax#avg_miss_w8 < cplant24.nomax.all#avg_miss_w8" +
			" and cons.nomax#avg_miss_w9 < cplant24.nomax.all#avg_miss_w9" +
			" and cons.nomax#avg_miss_w10 < cplant24.nomax.all#avg_miss_w10 require 2 tier 3 seeds 42..51",
		"Conservative backfilling reduces the unfairness (miss time) of wide jobs",
	},
	{
		"claim fig17-cons72max-competitive-tat: cons.72max < cons.nomax on avg_tat seeds 42..51",
		"The conservative schedule with 72h limits has a superior turnaround time to the plain conservative schedule",
	},
	{
		"claim fig19-72max-lowers-loc: cons.72max < cons.nomax" +
			" and consdyn.72max < consdyn.nomax on loc seeds 42..51",
		"72h limits lower the loss of capacity of the conservative schedules",
	},
}

// claim is one row of a claim table: the claim in the hypothesis grammar
// and the prose statement the reports print.
type claim struct{ spec, statement string }

// parseClaims parses a claim table into hypothesis specs, in table order.
// A claim that stops parsing (a renamed policy, a dropped metric key)
// panics loudly rather than silently vanishing from the checklist.
func parseClaims(table string, claims []claim) []hypothesis.Spec {
	out := make([]hypothesis.Spec, len(claims))
	for i, c := range claims {
		s, err := hypothesis.Parse(c.spec)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s claim %d: %v", table, i, err))
		}
		s.Statement = c.statement
		out[i] = s
	}
	return out
}

// init registers every claim table: the paper's claims first, then the
// population, preemption and queue demonstrations.
func init() {
	register := func(table string, claims []claim) {
		for _, s := range parseClaims(table, claims) {
			hypothesis.Register(s)
		}
	}
	register("paper", paperClaims)
	register("population", populationClaims)
	register("preempt", preemptClaims)
	register("queue", queueClaims)
}
