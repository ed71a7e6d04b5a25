package sched

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Context is a set of places a policy spec runs in; each rule of the
// composition table applies in some of them. Capped and Shared qualify a
// leaf and join Cell (an inherited policy) or Leaf (the leaf's own).
type Context uint8

const (
	Flat   Context = 1 << iota // the policy of a flat run
	Cell                       // the cell policy of a topology run
	Leaf                       // a topology leaf's own policy
	Capped                     // a leaf under a cap= quota on itself or an ancestor
	Shared                     // a leaf whose partition holds other leaves

	anywhere = Flat | Cell | Leaf | Capped | Shared
)

// rule is one row of the composition table: specs the contexts in `in`
// reject. blame is the grammar key of the component the rejection points
// at; bad sees a normalized spec; why is the reason, and leaf its wording
// in the Leaf context when that differs (see reason for the placeholders).
type rule struct {
	blame     string
	in        Context
	bad       func(s Spec) bool
	why, leaf string
}

// rules is the composition table, the one place a policy spec is rejected:
// first each component on its own, then how the components combine in the
// context the spec runs in (the combination rows assume valid components).
// ParseSpec and Validate walk it for flat runs, topology.Parse for leaves
// and topology.Admit for the cell policy of a topology run.
var rules = []rule{
	{"order", anywhere, func(s Spec) bool { _, err := OrderByName(s.Order); return err != nil }, `unknown order "{order}" (want {orders})`, ""},
	{"bf", anywhere, func(s Spec) bool { return !slices.Contains(backfills, s.Backfill) }, `unknown backfill "{bf}" (want {backfills})`, ""},
	{"starve", anywhere, func(s Spec) bool { return s.Wait < 0 }, "starvation wait {wait} is negative", ""},
	{"starve", anywhere, func(s Spec) bool { _, err := normalizeHeavy(s.Heavy); return s.Wait > 0 && err != nil }, `unknown heavy classifier "{heavy}" (want all, nonheavy, q<1..99> or abs<proc-seconds>)`, ""},
	{"depth", anywhere, func(s Spec) bool { return s.Depth < 0 }, "depth {depth} out of range (want >= 1)", ""},
	{"max", anywhere, func(s Spec) bool { return s.MaxRuntime < 0 }, "max runtime {max} is negative", ""},
	{"preempt", anywhere, func(s Spec) bool {
		return s.PreemptTrigger != "" && !slices.Contains(preemptTriggers, s.PreemptTrigger)
	}, `unknown preempt trigger "{trigger}" (want {triggers})`, ""},
	{"preempt", anywhere, func(s Spec) bool { return s.PreemptTrigger != "" && !slices.Contains(preemptVictims, s.PreemptVictim) }, `unknown preempt victim "{victim}" (want {victims})`, ""},

	{"starve", anywhere, func(s Spec) bool { return s.Wait > 0 && !starvable(s) }, "starve is incompatible with bf={bf} (reservations already bound waits; want bf=noguarantee or bf=easy)", ""},
	{"starve", anywhere, func(s Spec) bool { return s.Wait == 0 && s.Heavy != "" }, `heavy classifier "{heavy}" without starve`, ""},
	{"depth", anywhere, func(s Spec) bool { return s.Wait == 0 && s.Depth != 0 && s.Backfill != BackfillDepth }, "depth={depth} needs starve or bf=depth", ""},
	{"preempt", anywhere, func(s Spec) bool { return s.PreemptTrigger == "" && s.PreemptVictim != "" }, `preempt victim "{victim}" without a preempt trigger`, ""},
	{"preempt", anywhere, func(s Spec) bool { return s.PreemptTrigger != "" && conservative(s) }, "preempt is incompatible with bf={bf} (conservative start-time promises would be broken by checkpointing running jobs; want bf=none, easy or depth)", ""},
	{"preempt", anywhere, func(s Spec) bool { return s.PreemptTrigger != "" && s.Backfill == BackfillNoGuarantee }, "preempt is incompatible with bf={bf} (no blocked-head reservation to protect; want bf=none, easy or depth)", ""},
	{"preempt", anywhere, func(s Spec) bool { return s.PreemptTrigger != "" && s.Wait > 0 }, "preempt is incompatible with starve (the starvation queue owns the reservation set preemption would override)", ""},
	{"preempt", anywhere, func(s Spec) bool { return s.PreemptTrigger != "" && s.MaxRuntime > 0 }, "preempt is incompatible with max (maximum-runtime splitting and preemption both extend checkpoint chains; their segment numbering conflicts)", ""},
	{"order", anywhere, func(s Spec) bool { return s.Order == "edf" && conservative(s) }, "order=edf is incompatible with bf={bf} (the conservative revalidation cache assumes priorities change only with the clock and usage; deadline-risk promotion reorders on observer state it cannot see)", ""},
	{"preempt", Cell | Leaf, func(s Spec) bool { return s.PreemptTrigger != "" }, "checkpoint preemption is not supported with a topology (partition loops have no requeue path)", "per-queue policies cannot set preempt= (checkpoint preemption needs the flat event loop's requeue path)"},
	{"order", Cell | Leaf, func(s Spec) bool { return s.Order == "edf" }, "order=edf is not supported with a topology (partition loops carry no per-run SLO context)", "per-queue policies cannot use order=edf (partitioned loops carry no per-run SLO context)"},
	{"max", Leaf, func(s Spec) bool { return s.MaxRuntime > 0 }, "per-queue policies cannot set max= (the maximum-runtime split is run-global)", ""},
	{"bf", Capped, conservative, "bf={bf} starts jobs on reserved capacity and cannot run under a cap= quota", ""},
	{"bf", Shared, conservative, "bf={bf} starts jobs on reserved capacity and cannot share a partition with other leaf queues (their starts break its promises)", ""},
}

// starvable reports whether s's backfill discipline can host a
// starvation queue (noguarantee or easy).
func starvable(s Spec) bool {
	return s.Backfill == BackfillNoGuarantee || s.Backfill == BackfillEASY
}

// conservative reports whether s promises every queued job a start time.
func conservative(s Spec) bool {
	return s.Backfill == BackfillConservative || s.Backfill == BackfillConservativeDynamic
}

// reason renders the rule's reason for s in ctx: {order}, {bf}, {wait},
// {heavy}, {depth}, {max}, {trigger} and {victim} name the spec's
// components, {orders}, {backfills}, {triggers} and {victims} the tokens
// the grammar accepts.
func (r rule) reason(s Spec, ctx Context) string {
	text := r.why
	if ctx&Leaf != 0 && r.leaf != "" {
		text = r.leaf
	}
	return strings.NewReplacer("{order}", s.Order, "{bf}", s.Backfill, "{wait}", strconv.FormatInt(s.Wait, 10),
		"{heavy}", s.Heavy, "{depth}", strconv.Itoa(s.Depth), "{max}", strconv.FormatInt(s.MaxRuntime, 10),
		"{trigger}", s.PreemptTrigger, "{victim}", s.PreemptVictim,
		"{orders}", strings.Join(OrderNames(), ", "), "{backfills}", strings.Join(backfills, ", "),
		"{triggers}", strings.Join(preemptTriggers, ", "), "{victims}", strings.Join(preemptVictims, ", ")).Replace(text)
}

// compose walks the table for the normalized spec s, written as text (a
// component chain or a registered name), and reports the first rule s
// breaks in ctx. A rejection quotes text and, when text holds the blamed
// component, names its byte position.
func compose(text string, s Spec, ctx Context) error {
	for _, r := range rules {
		if r.in&ctx == 0 || !r.bad(s) {
			continue
		}
		if p, ok := componentPos(text, r.blame); ok {
			return fmt.Errorf("sched: policy spec %q: position %d: %s", text, p, r.reason(s, ctx))
		}
		return fmt.Errorf("sched: policy spec %q: %s", text, r.reason(s, ctx))
	}
	return nil
}

// componentPos returns the byte position of the first key= component of a
// chain, or false when text has none (a registered name has none).
func componentPos(text, key string) (int, bool) {
	pos := 0
	for _, part := range strings.Split(text, "+") {
		trimmed := strings.TrimSpace(part)
		if k, _, ok := strings.Cut(trimmed, "="); ok && k == key {
			return pos + strings.Index(part, trimmed), true
		}
		pos += len(part) + 1 // the '+' separator
	}
	return 0, false
}

// Check walks the composition table for s in ctx. Errors quote s.String(),
// with the blamed component's position when that is a chain.
func (s Spec) Check(ctx Context) error { return compose(s.String(), s.normalized(), ctx) }
