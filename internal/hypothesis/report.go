package hypothesis

import (
	"fmt"
	"io"
)

// RenderFindings writes the full FINDINGS report: the per-claim verdicts
// with a per-seed table and the concrete values behind every comparison —
// the refutation evidence when a seed fails. The report is a pure function
// of the Evaluation, which is itself byte-identical at every -parallel
// setting and in both task-granularity modes (the campaign contract), so
// the report is too.
func RenderFindings(w io.Writer, e *Evaluation) {
	fmt.Fprintf(w, "FINDINGS — %d hypotheses on %s\n", len(e.Outcomes), e.Source)
	fmt.Fprintf(w, "matrix: %d cells, %d policy runs\n", e.Cells, e.Runs)
	fmt.Fprintf(w, "verdicts: %d confirmed, %d supported, %d refuted; %d/%d hold on the reference seed\n",
		e.Confirmed(), e.Supported(), e.Refuted(), e.ReferenceHolds(), len(e.Outcomes))
	for i := range e.Outcomes {
		renderOutcome(w, &e.Outcomes[i])
	}
}

func renderOutcome(w io.Writer, o *Outcome) {
	s := o.Spec
	fmt.Fprintf(w, "\n## %s — %s (tier %d, %d/%d seeds)\n",
		s.ID, o.Status(), s.EffectiveTier(), o.Passed(), len(o.Results))
	fmt.Fprintf(w, "   %s\n", s.Canonical())
	if s.Statement != "" {
		fmt.Fprintf(w, "   > %s\n", s.Statement)
	}
	fmt.Fprintf(w, "   %6s  %-6s  evidence\n", "seed", "result")
	for _, r := range o.Results {
		if r.Err != nil {
			fmt.Fprintf(w, "   %6d  %-6s  %v\n", r.Seed, "ERROR", r.Err)
			continue
		}
		result := "pass"
		if !r.Pass {
			result = "FAIL"
		}
		if s.EffectiveRequire() < len(s.Terms) {
			result += fmt.Sprintf(" (%d/%d held, need %d)", r.Held, len(s.Terms), s.EffectiveRequire())
		}
		fmt.Fprintf(w, "   %6d  %-6s  %s\n", r.Seed, result, evidence(s, r))
	}
}

// evidence renders one seed's comparisons with the concrete values, marking
// the terms that failed.
func evidence(s Spec, r SeedResult) string {
	out := ""
	for i, tr := range r.Terms {
		if i > 0 {
			out += "; "
		}
		t := s.Terms[i]
		op := string(t.Op)
		if t.Op == OpApprox {
			op += fmtFloat(t.Tol) + "%"
		}
		out += fmt.Sprintf("%s %s %s", fmtFloat(tr.Left), op, fmtFloat(tr.Right))
		if !tr.Pass {
			out += " [FAIL]"
		}
	}
	return out
}

// RenderMarkdown writes the claim-checklist table EXPERIMENTS.md embeds:
// one row per claim with its reference-seed status, tier and seed tally.
func RenderMarkdown(w io.Writer, e *Evaluation) {
	fmt.Fprintln(w, "| Status | Tier | Seeds | Claim | Statement |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for i := range e.Outcomes {
		o := &e.Outcomes[i]
		mark := "✓"
		if !o.Reference().Pass {
			mark = "✗"
		}
		statement := o.Spec.Statement
		if statement == "" {
			statement = "`" + o.Spec.Canonical() + "`"
		}
		fmt.Fprintf(w, "| %s | %d | %d/%d | `%s` | %s |\n",
			mark, o.Spec.EffectiveTier(), o.Passed(), len(o.Results), o.Spec.ID, statement)
	}
	fmt.Fprintf(w, "\n**%d/%d claims reproduce on the reference seed; %d/%d hold\nunanimously across their seeds.**\n",
		e.ReferenceHolds(), len(e.Outcomes), e.Confirmed(), len(e.Outcomes))
}
