package experiments

import (
	"fmt"
	"io"

	"fairsched/internal/core"
	"fairsched/internal/fairness"
	"fairsched/internal/job"
	"fairsched/internal/sweep"
)

// Metric comparison (paper §4): the same schedules judged by two of the FST
// metrics the paper discusses. The hybrid metric is the paper's
// contribution; CONS-P shares its FSTs across schedules but leaks packing
// performance into the judgment. The third, the Sabin no-later-arrivals
// FST, costs one re-simulation per job; fairness.Sabin over core.Starts
// computes it for callers that want it.

// MetricRow is one policy's unfairness under each metric.
type MetricRow struct {
	Policy string

	HybridPercentUnfair float64
	HybridAvgMiss       float64

	ConsPPercentUnfair float64
	ConsPAvgMiss       float64
}

// CompareMetrics runs each spec over the workload and measures its
// schedule with the hybrid FST and the CONS-P FST. The per-spec
// measurements fan out on at most parallel workers (<= 0: one per CPU);
// rows come back in spec order. A failing spec does not discard the
// others: its row is returned zero-valued (Policy == "") alongside the
// aggregated error — on a non-nil error, skip rows with an empty Policy
// before rendering.
func CompareMetrics(cfg core.StudyConfig, specs []core.Spec, jobs []*job.Job, parallel int) ([]MetricRow, error) {
	if cfg.SystemSize <= 0 {
		cfg.SystemSize = 1000
	}
	consP, err := fairness.ConsP(jobs, cfg.SystemSize)
	if err != nil {
		return nil, err
	}
	return sweep.Map(parallel, specs,
		func(s core.Spec) string { return s.Key },
		func(_ int, spec core.Spec) (MetricRow, error) {
			run, err := core.Execute(cfg, spec, jobs)
			if err != nil {
				return MetricRow{}, err
			}
			row := MetricRow{Policy: spec.Key}

			hybrid := fairness.Measure(run.Result.Records, run.FST)
			row.HybridPercentUnfair = hybrid.PercentUnfair()
			row.HybridAvgMiss = hybrid.AvgMissTime()

			cp := fairness.Measure(run.Result.Records, consP)
			row.ConsPPercentUnfair = cp.PercentUnfair()
			row.ConsPAvgMiss = cp.AvgMissTime()
			return row, nil
		})
}

// RenderMetricComparison writes the comparison as an aligned table.
func RenderMetricComparison(w io.Writer, rows []MetricRow) {
	fmt.Fprintln(w, "METRIC COMPARISON — the same schedules under the §4 fairness metrics")
	fmt.Fprintf(w, "  %-22s %16s %16s\n", "policy", "hybrid (§4.1)", "CONS-P")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %6.2f%% %6.0fs %6.2f%% %6.0fs\n",
			r.Policy,
			r.HybridPercentUnfair, r.HybridAvgMiss,
			r.ConsPPercentUnfair, r.ConsPAvgMiss)
	}
	fmt.Fprintln(w)
}
