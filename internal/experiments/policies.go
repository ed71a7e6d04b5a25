package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"fairsched/internal/sched"
)

// sortedBuiltins returns the policy registry sorted by name — listings are
// lookup tables, so they render in a deterministic order a reader can scan,
// independent of registration order.
func sortedBuiltins() []sched.Builtin {
	bs := append([]sched.Builtin(nil), sched.Builtins()...)
	sort.Slice(bs, func(i, k int) bool { return bs[i].Key < bs[k].Key })
	return bs
}

// ListPolicies writes the named-policy registry — every builtin spec with
// its component expansion and description, sorted by name — followed by the
// spec grammar, symmetric with the -list-scenarios listing.
func ListPolicies(w io.Writer) {
	fmt.Fprintln(w, "Built-in policies (name, expansion, description):")
	keyW, expW := 0, 0
	builtins := sortedBuiltins()
	for _, b := range builtins {
		if len(b.Key) > keyW {
			keyW = len(b.Key)
		}
		if c := b.Spec.Canonical(); len(c) > expW {
			expW = len(c)
		}
	}
	for _, b := range builtins {
		fmt.Fprintf(w, "  %-*s  %-*s  %s\n", keyW, b.Key, expW, b.Spec.Canonical(), b.Description)
	}
	fmt.Fprintln(w, "\nAny \"depth<N>\" (N >= 1) is depth-N backfilling over the fairshare queue.")
	fmt.Fprintln(w, "\nAd-hoc chains join components with '+':")
	// component writes a syntax column and a description starting at column
	// 50; a syntax too wide for its column puts the description underneath.
	component := func(syntax string, desc ...string) {
		if len(syntax) > 46 {
			fmt.Fprintf(w, "  %s\n%50s", syntax, "")
		} else {
			fmt.Fprintf(w, "  %-48s", syntax)
		}
		fmt.Fprintln(w, strings.Join(desc, "\n"+strings.Repeat(" ", 50)))
	}
	component("order="+strings.Join(sched.OrderNames(), "|"), "queue order (default fairshare)")
	component("bf="+strings.Join(sched.BackfillNames(), "|"), "backfill discipline (default noguarantee)")
	component("starve=24h[.all|.nonheavy|.q75|.abs280h]", "starvation queue: wait threshold + admission",
		"(q<N>: heavy above the N-th usage quantile;",
		"abs<S>: heavy above S decayed proc-seconds)")
	component("depth=2", "reservation depth (with starve or bf=depth)")
	component("max=72h", "maximum-runtime limit (simulator-enforced)")
	component("preempt="+strings.Join(sched.PreemptTriggers(), "|")+"[."+strings.Join(sched.PreemptVictims(), "|.")+"]",
		"checkpoint preemption: trigger + victim (default lowpri;",
		"with bf=none, easy or depth, no starve or max)")
	fmt.Fprintln(w, "\nExample: -policy 'order=fairshare+bf=easy+starve=24h.nonheavy+depth=2'")
}

// PolicyTableMarkdown writes the registry as the Markdown table embedded in
// README.md (regenerate with `experiments -list-policies -markdown`).
func PolicyTableMarkdown(w io.Writer) {
	fmt.Fprintln(w, "| Name | Components | Description |")
	fmt.Fprintln(w, "|------|------------|-------------|")
	for _, b := range sortedBuiltins() {
		fmt.Fprintf(w, "| `%s` | `%s` | %s |\n", b.Key, b.Spec.Canonical(), b.Description)
	}
}
