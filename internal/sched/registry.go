package sched

import (
	"strconv"
	"strings"
)

// Builtin is a registered named policy spec with its listing description.
type Builtin struct {
	Spec
	Description string
}

const (
	hours24 = 24 * hourSeconds
	hours72 = 72 * hourSeconds
)

// builtins is the named-policy registry, in listing order: the paper's nine
// configurations first, then the reference baselines, then the composed
// extensions opened up by the component grammar (size-based and width-based
// orders, starvation guards over them, reservation-depth ablations). Every
// entry is a point in the same (order × backfill × starvation) space; the
// name is shorthand for the chain Spec.Canonical renders.
var builtins = []Builtin{
	// The paper's nine configurations (§5.5), baseline first.
	{Spec{Key: "cplant24.nomax.all", Order: "fairshare", Backfill: BackfillNoGuarantee, Wait: hours24, Heavy: HeavyAll},
		"baseline CPlant: no-guarantee backfilling, 24h starvation queue, everyone admitted"},
	{Spec{Key: "cplant24.nomax.fair", Order: "fairshare", Backfill: BackfillNoGuarantee, Wait: hours24, Heavy: HeavyNonheavy},
		"baseline + heavy users barred from the starvation queue (§5.2)"},
	{Spec{Key: "cplant72.nomax.all", Order: "fairshare", Backfill: BackfillNoGuarantee, Wait: hours72, Heavy: HeavyAll},
		"baseline with a 72h starvation-entry delay (§5.2)"},
	{Spec{Key: "cplant24.72max.all", Order: "fairshare", Backfill: BackfillNoGuarantee, Wait: hours24, Heavy: HeavyAll, MaxRuntime: hours72},
		"baseline + 72h maximum-runtime limit (§5.1)"},
	{Spec{Key: "cplant72.72max.fair", Order: "fairshare", Backfill: BackfillNoGuarantee, Wait: hours72, Heavy: HeavyNonheavy, MaxRuntime: hours72},
		"all three minor changes combined (§5.2)"},
	{Spec{Key: "cons.nomax", Order: "fairshare", Backfill: BackfillConservative},
		"conservative backfilling over the fairshare queue (§5.3)"},
	{Spec{Key: "consdyn.nomax", Order: "fairshare", Backfill: BackfillConservativeDynamic},
		"conservative backfilling with dynamic reservations (§5.4)"},
	{Spec{Key: "cons.72max", Order: "fairshare", Backfill: BackfillConservative, MaxRuntime: hours72},
		"conservative backfilling + 72h maximum-runtime limit"},
	{Spec{Key: "consdyn.72max", Order: "fairshare", Backfill: BackfillConservativeDynamic, MaxRuntime: hours72},
		"dynamic-reservation conservative + 72h maximum-runtime limit"},

	// Reference baselines.
	{Spec{Key: "fcfs", Order: "fcfs", Backfill: BackfillNone},
		"strict first-come-first-serve, no backfilling (Figure 1)"},
	{Spec{Key: "easy", Order: "fcfs", Backfill: BackfillEASY},
		"EASY aggressive backfilling over an FCFS queue (Figure 2)"},
	{Spec{Key: "easy.fairshare", Order: "fairshare", Backfill: BackfillEASY},
		"EASY aggressive backfilling over the fairshare queue"},
	{Spec{Key: "list.fairshare", Order: "fairshare", Backfill: BackfillNone},
		"no-backfill fairshare list scheduler (the hybrid-FST reference discipline, §4.1)"},
	{Spec{Key: "noguarantee", Order: "fairshare", Backfill: BackfillNoGuarantee},
		"pure no-guarantee backfilling, no starvation queue (CPlant minus its safety valve)"},

	// Size-based orders (Dell'Amico et al., "On Fair Size-Based Scheduling";
	// Berg et al., heSRPT) across the backfill disciplines.
	{Spec{Key: "list.sjf", Order: "sjf", Backfill: BackfillNone},
		"shortest-job-first list scheduling, no backfilling"},
	{Spec{Key: "list.lxf", Order: "lxf", Backfill: BackfillNone},
		"largest-expansion-factor-first list scheduling, no backfilling"},
	{Spec{Key: "easy.sjf", Order: "sjf", Backfill: BackfillEASY},
		"EASY backfilling over a shortest-job-first queue"},
	{Spec{Key: "easy.lxf", Order: "lxf", Backfill: BackfillEASY},
		"EASY backfilling over a largest-expansion-factor queue"},
	{Spec{Key: "easy.widest", Order: "widest", Backfill: BackfillEASY},
		"EASY backfilling, widest jobs first"},
	{Spec{Key: "easy.narrowest", Order: "narrowest", Backfill: BackfillEASY},
		"EASY backfilling, narrowest jobs first"},
	{Spec{Key: "cons.fcfs", Order: "fcfs", Backfill: BackfillConservative},
		"classic conservative backfilling over an FCFS queue"},
	{Spec{Key: "cons.sjf", Order: "sjf", Backfill: BackfillConservative},
		"conservative backfilling over a shortest-job-first queue"},
	{Spec{Key: "cons.lxf", Order: "lxf", Backfill: BackfillConservative},
		"conservative backfilling over a largest-expansion-factor queue"},
	{Spec{Key: "consdyn.sjf", Order: "sjf", Backfill: BackfillConservativeDynamic},
		"dynamic-reservation conservative over a shortest-job-first queue"},
	{Spec{Key: "consdyn.lxf", Order: "lxf", Backfill: BackfillConservativeDynamic},
		"dynamic-reservation conservative over a largest-expansion-factor queue"},

	// Heavy-classifier ablations: the *.fair admission rule with the
	// alternative classifiers (quantile and absolute-budget), named in the
	// grammar's heavy-user field.
	{Spec{Key: "cplant24.nomax.q75", Order: "fairshare", Backfill: BackfillNoGuarantee, Wait: hours24, Heavy: "q75"},
		"baseline with users above the 75th usage quantile barred from the starvation queue"},
	{Spec{Key: "cplant24.nomax.abs280h", Order: "fairshare", Backfill: BackfillNoGuarantee, Wait: hours24, Heavy: "abs280h"},
		"baseline with users above 280h of decayed processor-seconds barred from the starvation queue"},

	// Starvation guards over size-based orders: the anti-starvation safety
	// valve the fairness literature asks for when favoring short jobs.
	{Spec{Key: "cplant24.sjf", Order: "sjf", Backfill: BackfillNoGuarantee, Wait: hours24, Heavy: HeavyAll},
		"no-guarantee backfilling over SJF with the 24h starvation queue"},
	{Spec{Key: "cplant24.lxf", Order: "lxf", Backfill: BackfillNoGuarantee, Wait: hours24, Heavy: HeavyAll},
		"no-guarantee backfilling over LXF with the 24h starvation queue"},
	{Spec{Key: "easy.starve24", Order: "fcfs", Backfill: BackfillEASY, Wait: hours24, Heavy: HeavyAll},
		"EASY backfilling with a 24h starvation queue escalation"},

	// Reservation-depth ablations: the spectrum between aggressive and
	// conservative backfilling.
	{Spec{Key: "depth2", Order: "fairshare", Backfill: BackfillDepth, Depth: 2},
		"depth-2 backfilling: the first 2 fairshare-queue heads hold reservations"},
	{Spec{Key: "depth4", Order: "fairshare", Backfill: BackfillDepth, Depth: 4},
		"depth-4 backfilling over the fairshare queue"},
	{Spec{Key: "depth8", Order: "fairshare", Backfill: BackfillDepth, Depth: 8},
		"depth-8 backfilling over the fairshare queue"},
	{Spec{Key: "depth8.fcfs", Order: "fcfs", Backfill: BackfillDepth, Depth: 8},
		"depth-8 backfilling over an FCFS queue"},
	{Spec{Key: "cplant24.depth2", Order: "fairshare", Backfill: BackfillNoGuarantee, Wait: hours24, Heavy: HeavyAll, Depth: 2},
		"baseline CPlant with the first 2 starvation-queue heads reserved"},

	// Preemptive and deadline-aware policies: checkpoint preemption
	// (preempt=) and the SLO-deadline order (order=edf) open the
	// SRPT/heSRPT line (Berg et al.) against the paper's non-preemptive
	// disciplines, with the SLO attainment tables as the scoreboard.
	{Spec{Key: "easy.preempt", Order: "fcfs", Backfill: BackfillEASY, PreemptTrigger: PreemptReserve, PreemptVictim: VictimLowPri},
		"EASY backfilling that checkpoints the lowest-priority running job when the head would wait"},
	{Spec{Key: "srpt", Order: "sjf", Backfill: BackfillEASY, PreemptTrigger: PreemptReserve, PreemptVictim: VictimLowPri},
		"SRPT-style: shortest-estimate-first with checkpoint preemption (remainders carry shrunken estimates, so preempted work re-sorts by remaining size)"},
	{Spec{Key: "edf", Order: "edf", Backfill: BackfillEASY},
		"earliest-SLO-deadline-first (submit + wait target, breach-risk users promoted) with EASY backfilling"},
	{Spec{Key: "edf.preempt", Order: "edf", Backfill: BackfillEASY, PreemptTrigger: PreemptDeadline, PreemptVictim: VictimLowPri},
		"EDF over SLO deadlines that checkpoints low-priority running jobs once a deadline is missed"},
}

// Builtins returns the named-policy registry in listing order. The returned
// slice is shared; callers must not mutate it.
func Builtins() []Builtin { return builtins }

// Names lists the registered policy names in listing order.
func Names() []string {
	out := make([]string, len(builtins))
	for i, b := range builtins {
		out[i] = b.Key
	}
	return out
}

// Lookup resolves a registered policy name. Besides the registry it accepts
// any "depth<N>" (N >= 1): depth-N backfilling over the fairshare queue.
func Lookup(name string) (Spec, bool) {
	for _, b := range builtins {
		if b.Key == name {
			return b.Spec.normalized(), true
		}
	}
	if rest, ok := strings.CutPrefix(name, "depth"); ok {
		if n, err := strconv.Atoi(rest); err == nil && n >= 1 {
			return Spec{Key: name, Order: "fairshare", Backfill: BackfillDepth, Depth: n}.normalized(), true
		}
	}
	return Spec{}, false
}
