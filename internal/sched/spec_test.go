package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fairsched/internal/fairshare"
)

func TestParseSpecRegisteredNames(t *testing.T) {
	s, err := ParseSpec("cplant24.nomax.all")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Key: "cplant24.nomax.all", Order: "fairshare",
		Backfill: BackfillNoGuarantee, Wait: 24 * 3600, Heavy: HeavyAll, Depth: 1,
	}
	if s != want {
		t.Fatalf("spec = %+v, want %+v", s, want)
	}
	if s.Canonical() != "order=fairshare+bf=noguarantee+starve=24h.all" {
		t.Fatalf("canonical = %q", s.Canonical())
	}
}

func TestParseSpecChains(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"order=fairshare+bf=easy+starve=24h.nonheavy+depth=2",
			Spec{Order: "fairshare", Backfill: BackfillEASY, Wait: 24 * 3600, Heavy: HeavyNonheavy, Depth: 2}},
		{"bf=none+order=sjf",
			Spec{Order: "sjf", Backfill: BackfillNone}},
		{"starve=72h",
			Spec{Order: "fairshare", Backfill: BackfillNoGuarantee, Wait: 72 * 3600, Heavy: HeavyAll, Depth: 1}},
		{"order=lxf+bf=consdyn+max=72h",
			Spec{Order: "lxf", Backfill: BackfillConservativeDynamic, MaxRuntime: 72 * 3600}},
		{"bf=depth+depth=3",
			Spec{Order: "fairshare", Backfill: BackfillDepth, Depth: 3}},
		{"order=fcfs+bf=easy+preempt=reserve", // victim defaults to lowpri
			Spec{Order: "fcfs", Backfill: BackfillEASY, PreemptTrigger: PreemptReserve, PreemptVictim: VictimLowPri}},
		{"order=edf+bf=easy+preempt=deadline.newest",
			Spec{Order: "edf", Backfill: BackfillEASY, PreemptTrigger: PreemptDeadline, PreemptVictim: VictimNewest}},
		{"preempt=reserve+bf=easy", // component order is free
			Spec{Order: "fairshare", Backfill: BackfillEASY, PreemptTrigger: PreemptReserve, PreemptVictim: VictimLowPri}},
		{"order=fcfs+bf=depth+depth=2+preempt=reserve",
			Spec{Order: "fcfs", Backfill: BackfillDepth, Depth: 2, PreemptTrigger: PreemptReserve, PreemptVictim: VictimLowPri}},
		{"order=edf+bf=none",
			Spec{Order: "edf", Backfill: BackfillNone}},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		want := tc.want.normalized()
		want.Key = want.Canonical()
		if got != want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, want)
		}
	}
}

func TestParseSpecErrorsCarryPosition(t *testing.T) {
	cases := []struct {
		in      string
		wantPos string // substring naming the expected position
		wantMsg string
	}{
		{"order=bogus+bf=easy", "position 6", "unknown order"},
		{"order=fairshare+bf=bogus", "position 19", "unknown backfill"},
		{"order=fairshare+frobnicate=1", "position 16", "unknown component"},
		{"order=fairshare+starve=24h.sometimes", "position 27", "unknown heavy classifier"},
		{"order=fairshare+depth=x", "position 22", "depth"},
		{"bf=easy+bf=none", "position 8", "duplicate bf="},
		{"order=fairshare+starve=0h", "position 23", "must be positive"},
		{"order=fairshare+bf", "position 16", "not key=value"},
		{"preempt=bogus.lowpri", "position 8", "unknown preempt trigger"},
		{"preempt=reserve.bogus", "position 16", "unknown preempt victim"},
		{"order=sjf+bf=conservative+preempt=reserve", "position 26", "preempt is incompatible with bf=conservative"},
		{"order=sjf+bf=consdyn+preempt=deadline", "position 21", "preempt is incompatible with bf=consdyn"},
		{"preempt=deadline.newest+bf=noguarantee", "position 0", "no blocked-head reservation"},
		{"order=fcfs+bf=easy+starve=24h+preempt=reserve", "position 30", "preempt is incompatible with starve"},
		{"order=fcfs+bf=easy+preempt=reserve+max=72h", "position 19", "preempt is incompatible with max"},
		{"order=edf+bf=conservative", "position 0", "order=edf is incompatible with bf=conservative"},
		{"order=edf+bf=consdyn", "position 0", "order=edf is incompatible with bf=consdyn"},
		{"order=fcfs+bf=conservative+starve=24h", "position 27", "starve is incompatible with bf=conservative"},
		{"order=fcfs+bf=easy+depth=2", "position 19", "depth=2 needs starve or bf=depth"},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.in)
		if err == nil {
			t.Errorf("ParseSpec(%q): accepted", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantPos) || !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("ParseSpec(%q) error %q: want position %q and message %q",
				tc.in, err, tc.wantPos, tc.wantMsg)
		}
	}
}

func TestParseSpecUnknownNameFailsLoudly(t *testing.T) {
	_, err := ParseSpec("nonsense")
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("err = %v", err)
	}
	if _, err := ParseSpec(""); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// TestCompositionTable holds exactly one case per row of the composition
// table, in row order, and fails when a row has none: first the rows that
// vet each component on its own, then the combination rows. Each case must be
// rejected by its row in the case's context, with the row's reason and —
// when the canonical chain carries the blamed component — that
// component's byte position. A flat row must also fail Validate and New;
// any other row must leave the spec valid on a flat machine.
func TestCompositionTable(t *testing.T) {
	cases := []struct {
		spec    Spec
		ctx     Context
		wantSub string
	}{
		{Spec{Order: "alphabetical"}, Flat, `unknown order "alphabetical" (want fairshare, fcfs,`},
		{Spec{Backfill: "optimistic"}, Flat, `unknown backfill "optimistic" (want none, noguarantee,`},
		{Spec{Wait: -1}, Flat, "starvation wait -1 is negative"},
		{Spec{Backfill: BackfillEASY, Wait: 3600, Heavy: "sometimes"}, Flat, `unknown heavy classifier "sometimes"`},
		{Spec{Backfill: BackfillEASY, Wait: 3600, Depth: -1}, Flat, "depth -1 out of range (want >= 1)"},
		{Spec{MaxRuntime: -5}, Flat, "max runtime -5 is negative"},
		{Spec{Backfill: BackfillEASY, PreemptTrigger: "sometimes"}, Flat, `unknown preempt trigger "sometimes" (want reserve, deadline)`},
		{Spec{Backfill: BackfillEASY, PreemptTrigger: PreemptReserve, PreemptVictim: "oldest"}, Flat, `unknown preempt victim "oldest" (want lowpri, newest)`},
		{Spec{Backfill: BackfillConservative, Wait: 3600}, Flat, "starve is incompatible with bf=conservative"},
		{Spec{Backfill: BackfillEASY, Heavy: HeavyAll}, Flat, `heavy classifier "all" without starve`},
		{Spec{Backfill: BackfillEASY, Depth: 2}, Flat, "depth=2 needs starve or bf=depth"},
		{Spec{Backfill: BackfillEASY, PreemptVictim: VictimLowPri}, Flat, `preempt victim "lowpri" without a preempt trigger`},
		{Spec{Backfill: BackfillConservativeDynamic, PreemptTrigger: PreemptReserve}, Flat, "preempt is incompatible with bf=consdyn"},
		{Spec{Backfill: BackfillNoGuarantee, PreemptTrigger: PreemptReserve}, Flat, "no blocked-head reservation"},
		{Spec{Backfill: BackfillEASY, PreemptTrigger: PreemptReserve, Wait: 3600}, Flat, "preempt is incompatible with starve"},
		{Spec{Backfill: BackfillEASY, PreemptTrigger: PreemptReserve, MaxRuntime: 3600}, Flat, "preempt is incompatible with max"},
		{Spec{Order: "edf", Backfill: BackfillConservative}, Flat, "order=edf is incompatible with bf=conservative"},
		{Spec{Order: "sjf", Backfill: BackfillEASY, PreemptTrigger: PreemptReserve}, Cell, "checkpoint preemption is not supported with a topology"},
		{Spec{Order: "edf", Backfill: BackfillEASY}, Cell, "order=edf is not supported with a topology"},
		{Spec{Order: "fcfs", MaxRuntime: 3600}, Leaf, "per-queue policies cannot set max="},
		{Spec{Order: "fcfs", Backfill: BackfillConservative}, Leaf | Capped, "bf=conservative starts jobs on reserved capacity and cannot run under a cap= quota"},
		{Spec{Order: "sjf", Backfill: BackfillConservativeDynamic}, Cell | Shared, "bf=consdyn starts jobs on reserved capacity and cannot share a partition with other leaf queues"},
	}
	hits := make([]int, len(rules))
	for i, tc := range cases {
		k := slices.IndexFunc(rules, func(r rule) bool { return r.in&tc.ctx != 0 && r.bad(tc.spec.normalized()) })
		if k < 0 {
			t.Errorf("case %d: %+v admitted in context %b", i, tc.spec, tc.ctx)
			continue
		}
		if hits[k]++; k != i {
			t.Errorf("case %d rejected by row %d, want row %d", i, k, i)
		}
		r := rules[k]
		err := tc.spec.Check(tc.ctx)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("case %d: Check = %v, want %q", i, err, tc.wantSub)
			continue
		}
		text := tc.spec.String()
		if p, ok := componentPos(text, r.blame); ok {
			if !strings.Contains(err.Error(), fmt.Sprintf("position %d:", p)) || !strings.HasPrefix(text[p:], r.blame+"=") {
				t.Errorf("case %d: %v: want the position of %s= in %q", i, err, r.blame, text)
			}
		}
		_, newErr := New(tc.spec)
		if flat := tc.ctx&Flat != 0; flat != (tc.spec.Validate() != nil) || flat != (newErr != nil) {
			t.Errorf("case %d: Validate = %v, New = %v; want errors iff the row is a flat one", i, tc.spec.Validate(), newErr)
		}
	}
	for k, n := range hits {
		if n != 1 {
			t.Errorf("row %d (blames %s=) has %d cases, want exactly 1", k, rules[k].blame, n)
		}
	}
}

func TestParseSpecHeavyClassifierTokens(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"starve=24h.q75",
			Spec{Order: "fairshare", Backfill: BackfillNoGuarantee, Wait: 24 * 3600, Heavy: "q75", Depth: 1}},
		{"starve=24h.q07", // leading zero normalizes, keeping canonical stable
			Spec{Order: "fairshare", Backfill: BackfillNoGuarantee, Wait: 24 * 3600, Heavy: "q7", Depth: 1}},
		{"order=sjf+bf=easy+starve=72h.abs280h",
			Spec{Order: "sjf", Backfill: BackfillEASY, Wait: 72 * 3600, Heavy: "abs280h", Depth: 1}},
		{"starve=24h.abs1008000", // 280h in raw seconds: same classifier, same canonical
			Spec{Order: "fairshare", Backfill: BackfillNoGuarantee, Wait: 24 * 3600, Heavy: "abs280h", Depth: 1}},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		want := tc.want.normalized()
		want.Key = want.Canonical()
		if got != want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, want)
		}
		if MustNew(got) == nil {
			t.Errorf("ParseSpec(%q): nil policy", tc.in)
		}
	}
	for _, bad := range []string{
		"starve=24h.q0", "starve=24h.q100", "starve=24h.qqq",
		"starve=24h.abs0", "starve=24h.abs-3", "starve=24h.abs",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): accepted", bad)
		}
	}
}

// TestHeavyClassifierResolution pins the grammar token -> classifier
// mapping the starvation component is assembled with.
func TestHeavyClassifierResolution(t *testing.T) {
	if _, ok := heavyClassifier("all").(fairshare.Never); !ok {
		t.Error("all should resolve to Never")
	}
	if _, ok := heavyClassifier("nonheavy").(fairshare.AboveMean); !ok {
		t.Error("nonheavy should resolve to AboveMean")
	}
	q, ok := heavyClassifier("q75").(fairshare.AboveQuantile)
	if !ok || q.Q != 0.75 {
		t.Errorf("q75 resolved to %#v", heavyClassifier("q75"))
	}
	a, ok := heavyClassifier("abs280h").(fairshare.AboveAbsolute)
	if !ok || a.ProcSeconds != 280*3600 {
		t.Errorf("abs280h resolved to %#v", heavyClassifier("abs280h"))
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	// Every builtin's canonical chain re-parses to the same components.
	for _, b := range Builtins() {
		c := b.Spec.Canonical()
		got, err := ParseSpec(c)
		if err != nil {
			t.Errorf("%s: canonical %q does not parse: %v", b.Key, c, err)
			continue
		}
		if got.Canonical() != c {
			t.Errorf("%s: canonical not stable: %q -> %q", b.Key, c, got.Canonical())
		}
		want := b.Spec.normalized()
		want.Key = c
		if got != want {
			t.Errorf("%s: round trip changed spec: %+v -> %+v", b.Key, want, got)
		}
	}
}

func TestSpecStringPrefersKey(t *testing.T) {
	s, _ := ParseSpec("fcfs")
	if s.String() != "fcfs" {
		t.Fatalf("String = %q", s.String())
	}
	anon := Spec{Order: "sjf", Backfill: BackfillEASY}
	if anon.String() != "order=sjf+bf=easy" {
		t.Fatalf("anonymous String = %q", anon.String())
	}
}

func TestParseDurUnits(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{{"90", 90}, {"90s", 90}, {"15m", 900}, {"24h", 86400}, {"3d", 3 * 86400}, {"2w", 14 * 86400}} {
		got, err := ParseDur(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDur(%q) = %d,%v want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "x", "1.5h", "h",
		"3074457345618258603m", // wraps to 20s
		"15250284452472w",      // wraps negative
		"-15250284452472w",     // wraps positive
	} {
		if got, err := ParseDur(bad); err == nil {
			t.Errorf("ParseDur(%q) accepted as %d", bad, got)
		}
	}
	// The same overflow through the policy grammar's max= component.
	if s, err := ParseSpec("order=fcfs+bf=easy+max=3074457345618258603m"); err == nil {
		t.Errorf("overflowing max= accepted as %s", s.Canonical())
	}
}
