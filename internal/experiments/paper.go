package experiments

import (
	"fmt"
	"io"
)

// PaperValue records a number reported (or read off a figure) in the paper
// for side-by-side comparison with the measured value. Most of the paper's
// figure values are eyeballed from bar charts; the single exact number in
// the text is the 67,881 s miss-time outlier of Figure 15.
type PaperValue struct {
	Artifact string // figure/table id
	Metric   string
	Policy   string
	Paper    float64 // approximate paper value (NaN when only a direction is given)
	Exact    bool    // true when the paper prints the number
}

// PaperValues returns the values reported in (or read off) the paper's
// evaluation figures, for the side-by-side record in EXPERIMENTS.md. All
// bar-chart readings are approximate (marked Exact=false).
func PaperValues() []PaperValue {
	v := []PaperValue{
		{Artifact: "fig15", Metric: "avg miss time (s)", Policy: "consdyn.nomax", Paper: 67881, Exact: true},
	}
	type row struct {
		policy            string
		unfair, miss, tat float64
		loc               float64
	}
	// Eyeballed from Figures 8/9/11/13 and 14/15/17/19.
	rows := []row{
		{"cplant24.nomax.all", 9.5, 11000, 95000, 12.5},
		{"cplant24.nomax.fair", 8.2, 11400, 93000, 13.0},
		{"cplant72.nomax.all", 8.8, 10700, 97000, 12.6},
		{"cplant24.72max.all", 7.2, 2100, 87000, 10.4},
		{"cplant72.72max.fair", 4.2, 2400, 71000, 10.8},
		{"cons.nomax", 8.5, 11500, 105000, 12.8},
		{"consdyn.nomax", 3.5, 67881, 110000, 13.5},
		{"cons.72max", 5.5, 5500, 90000, 10.9},
		{"consdyn.72max", 4.5, 10500, 160000, 12.2},
	}
	for _, r := range rows {
		v = append(v,
			PaperValue{Artifact: "fig8/14", Metric: "% unfair jobs", Policy: r.policy, Paper: r.unfair},
			PaperValue{Artifact: "fig9/15", Metric: "avg miss time (s)", Policy: r.policy, Paper: r.miss},
			PaperValue{Artifact: "fig11/17", Metric: "avg turnaround (s)", Policy: r.policy, Paper: r.tat},
			PaperValue{Artifact: "fig13/19", Metric: "loss of capacity (%)", Policy: r.policy, Paper: r.loc},
		)
	}
	return v
}

// MeasuredFor looks up the measured counterpart of a paper value.
func MeasuredFor(r *Results, pv PaperValue) (float64, bool) {
	s, ok := r.ByKey[pv.Policy]
	if !ok {
		return 0, false
	}
	switch pv.Metric {
	case "% unfair jobs":
		return s.PercentUnfair, true
	case "avg miss time (s)":
		return s.AvgMissTime, true
	case "avg turnaround (s)":
		return s.AvgTurnaround, true
	case "loss of capacity (%)":
		return 100 * s.LossOfCapacity, true
	}
	return 0, false
}

// WriteMarkdownReport renders the paper-vs-measured table as GitHub
// Markdown — the exact table EXPERIMENTS.md embeds, so the doc can be
// refreshed with `go run ./cmd/experiments -markdown`. The claim checklist
// comes from `cmd/hypotheses -markdown`.
func WriteMarkdownReport(w io.Writer, r *Results) {
	fmt.Fprintln(w, "### Paper vs measured")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Artifact | Metric | Policy | Paper | Measured |")
	fmt.Fprintln(w, "|---|---|---|---:|---:|")
	for _, pv := range PaperValues() {
		m, ok := MeasuredFor(r, pv)
		if !ok {
			continue
		}
		note := "~"
		if pv.Exact {
			note = "="
		}
		fmt.Fprintf(w, "| %s | %s | `%s` | %s%.0f | %.0f |\n",
			pv.Artifact, pv.Metric, pv.Policy, note, pv.Paper, m)
	}
	fmt.Fprintln(w)
}

// WriteReport renders the complete experiment sweep: characterization,
// every figure, the load-weighted companion, and the paper-vs-measured
// table. The claims are judged by `cmd/hypotheses`.
func WriteReport(w io.Writer, r *Results) {
	c := Characterize(r.Jobs)
	RenderTable1(w, c.Table1)
	RenderTable2(w, c.Table2)
	RenderCharacterization(w, c)
	RenderFigure(w, r.Figure3())
	for _, f := range r.EvaluationFigures() {
		RenderFigure(w, f)
	}
	RenderFigure(w, r.UnfairLoadFigure())
	fmt.Fprintln(w, "PAPER VS MEASURED")
	fmt.Fprintf(w, "  %-10s %-22s %-22s %12s %12s\n", "artifact", "metric", "policy", "paper", "measured")
	for _, pv := range PaperValues() {
		m, ok := MeasuredFor(r, pv)
		if !ok {
			continue
		}
		note := "~"
		if pv.Exact {
			note = "="
		}
		fmt.Fprintf(w, "  %-10s %-22s %-22s %s%11.0f %12.0f\n",
			pv.Artifact, pv.Metric, pv.Policy, note, pv.Paper, m)
	}
	fmt.Fprintln(w)
}
