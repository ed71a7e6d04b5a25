package sched

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Backfill discipline tokens: the `bf=` axis of the spec grammar. Each
// names a backfilling discipline for the main queue; the starvation axis
// (`starve=`) composes with the aggressive family only.
const (
	// BackfillNone is pure list scheduling: queue heads start while they
	// fit; the first blocked head blocks everything behind it.
	BackfillNone = "none"
	// BackfillNoGuarantee starts every queued job that fits, in queue
	// order, with no reservations at all (CPlant's main-queue discipline).
	BackfillNoGuarantee = "noguarantee"
	// BackfillEASY gives only the blocked queue head a reservation
	// (aggressive backfilling, Lifka's EASY).
	BackfillEASY = "easy"
	// BackfillDepth gives the first `depth` queue heads reservations (the
	// spectrum between aggressive and conservative backfilling).
	BackfillDepth = "depth"
	// BackfillConservative gives every job a reservation from arrival on,
	// kept until a strictly better one is found (paper §5.3).
	BackfillConservative = "conservative"
	// BackfillConservativeDynamic rebuilds all reservations from scratch in
	// queue priority order at every scheduling event (paper §5.4).
	BackfillConservativeDynamic = "consdyn"
)

// Heavy classifier tokens: the optional second component of `starve=`. In
// addition to the named constants, two parameterized token families are
// accepted: "q<1..99>" bars users whose decayed usage sits above that
// quantile of the live users (fairshare.AboveQuantile), and
// "abs<proc-seconds>" bars users above an absolute decayed processor-second
// budget (fairshare.AboveAbsolute; the value takes the duration suffixes,
// so abs280h == abs1008000).
const (
	// HeavyAll admits every user's jobs to the starvation queue
	// (fairshare.Never — the paper's "*.all" policies).
	HeavyAll = "all"
	// HeavyNonheavy bars users whose decayed usage exceeds the mean over
	// live users (fairshare.AboveMean — the paper's "*.fair" policies).
	HeavyNonheavy = "nonheavy"
)

// normalizeHeavy validates a heavy-classifier token and returns its
// canonical spelling ("q07" -> "q7", "abs86400" -> "abs24h"), so canonical
// chains are stable identifiers regardless of how the value was written.
func normalizeHeavy(tok string) (string, error) {
	switch tok {
	case HeavyAll, HeavyNonheavy:
		return tok, nil
	}
	if rest, ok := strings.CutPrefix(tok, "q"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 || n > 99 {
			return "", fmt.Errorf("heavy quantile %q: want q1..q99", tok)
		}
		return fmt.Sprintf("q%d", n), nil
	}
	if rest, ok := strings.CutPrefix(tok, "abs"); ok {
		sec, err := ParseDur(rest)
		if err != nil {
			return "", fmt.Errorf("heavy absolute threshold %q: %v", tok, err)
		}
		if sec <= 0 {
			return "", fmt.Errorf("heavy absolute threshold %q must be positive", tok)
		}
		return "abs" + fmtDur(sec), nil
	}
	return "", fmt.Errorf("unknown heavy classifier %q (want %s, %s, q<1..99> or abs<proc-seconds>)",
		tok, HeavyAll, HeavyNonheavy)
}

// backfills lists the valid backfill tokens in listing order.
var backfills = []string{
	BackfillNone, BackfillNoGuarantee, BackfillEASY,
	BackfillDepth, BackfillConservative, BackfillConservativeDynamic,
}

// Preemption trigger tokens: the first component of `preempt=<trigger>.<victim>`.
const (
	// PreemptReserve checkpoints running jobs when the blocked queue head —
	// the job the backfill discipline is holding a reservation for — would
	// otherwise wait for nodes.
	PreemptReserve = "reserve"
	// PreemptDeadline checkpoints running jobs when a queued job of an
	// SLO-targeted user is already past its deadline (submit + wait
	// target). Requires an SLO assignment to act on; without one the
	// trigger never fires.
	PreemptDeadline = "deadline"
)

// Preemption victim tokens: the second component of `preempt=`, selecting
// which running jobs are checkpointed first (default lowpri).
const (
	// VictimLowPri checkpoints the running job that sorts last under the
	// queue order (the lowest-priority work on the machine).
	VictimLowPri = "lowpri"
	// VictimNewest checkpoints the most recently started running job (the
	// least sunk service; ties broken toward the higher job id).
	VictimNewest = "newest"
)

var preemptTriggers = []string{PreemptReserve, PreemptDeadline}
var preemptVictims = []string{VictimLowPri, VictimNewest}

// BackfillNames lists the bf= tokens in listing order.
func BackfillNames() []string { return slices.Clone(backfills) }

// PreemptTriggers lists the preempt= trigger tokens in listing order.
func PreemptTriggers() []string { return slices.Clone(preemptTriggers) }

// PreemptVictims lists the preempt= victim tokens in listing order.
func PreemptVictims() []string { return slices.Clone(preemptVictims) }

// Spec is one point in the policy design space: pure data naming the
// composed components. Specs are comparable, serializable and cheap to
// copy; New assembles the runnable policy.
//
// The zero value of each field means "default": order=fairshare,
// bf=noguarantee, no starvation queue, depth 1, no maximum runtime.
type Spec struct {
	// Key is the display name: the registered name ("cplant24.nomax.all")
	// or, for ad-hoc chains, the canonical chain. Reports key on it.
	Key string
	// Order is the queue-order token (see OrderNames).
	Order string
	// Backfill is the backfill-discipline token (see the Backfill constants).
	Backfill string
	// Wait is the starvation-queue entry threshold in seconds; 0 disables
	// the starvation queue entirely.
	Wait int64
	// Heavy is the heavy-user classifier token barring users from the
	// starvation queue (meaningful only with Wait > 0).
	Heavy string
	// Depth is the reservation depth: the number of starvation-queue heads
	// holding reservations (with Wait > 0), or the number of reserved queue
	// heads (with Backfill == BackfillDepth).
	Depth int
	// MaxRuntime, when positive, is the paper's maximum-runtime limit: the
	// simulator caps estimates to it and splits longer jobs into
	// checkpoint/restart segments. Recorded here so a Spec fully names a
	// configuration; the simulator, not the policy, enforces it.
	MaxRuntime int64
	// PreemptTrigger, when non-empty, enables checkpoint preemption: the
	// policy may terminate running jobs and resubmit their remainders as
	// chained segments (see the Preempt* trigger constants). The
	// composition table (see rules) names what it composes with.
	PreemptTrigger string
	// PreemptVictim selects which running jobs are checkpointed first
	// (meaningful only with PreemptTrigger; default lowpri).
	PreemptVictim string
}

// normalized returns the spec with defaults filled in.
func (s Spec) normalized() Spec {
	if s.Order == "" {
		s.Order = "fairshare"
	}
	if s.Backfill == "" {
		s.Backfill = BackfillNoGuarantee
	}
	if s.Wait > 0 && s.Heavy == "" {
		s.Heavy = HeavyAll
	}
	if s.Depth == 0 && (s.Wait > 0 || s.Backfill == BackfillDepth) {
		s.Depth = 1
	}
	if s.PreemptTrigger != "" && s.PreemptVictim == "" {
		s.PreemptVictim = VictimLowPri
	}
	return s
}

// Validate is the flat-run walk of the composition table, Check(Flat).
// New calls it; callers constructing Specs directly can call it for early
// errors.
func (s Spec) Validate() error { return s.Check(Flat) }

// Canonical renders the normalized spec as its full grammar chain:
// "order=fairshare+bf=noguarantee+starve=24h.all". Parsing the canonical
// form yields an identical spec (the round-trip property FuzzParseSpec
// checks), so the canonical chain is a stable cross-tool policy identifier.
func (s Spec) Canonical() string {
	s = s.normalized()
	var b strings.Builder
	b.WriteString("order=")
	b.WriteString(s.Order)
	b.WriteString("+bf=")
	b.WriteString(s.Backfill)
	if s.Wait > 0 {
		b.WriteString("+starve=")
		b.WriteString(fmtDur(s.Wait))
		b.WriteString(".")
		b.WriteString(s.Heavy)
	}
	if s.Backfill == BackfillDepth || (s.Wait > 0 && s.Depth > 1) {
		fmt.Fprintf(&b, "+depth=%d", s.Depth)
	}
	if s.MaxRuntime > 0 {
		b.WriteString("+max=")
		b.WriteString(fmtDur(s.MaxRuntime))
	}
	if s.PreemptTrigger != "" {
		b.WriteString("+preempt=")
		b.WriteString(s.PreemptTrigger)
		b.WriteString(".")
		b.WriteString(s.PreemptVictim)
	}
	return b.String()
}

// String returns the display name: Key when set, the canonical chain
// otherwise.
func (s Spec) String() string {
	if s.Key != "" {
		return s.Key
	}
	return s.Canonical()
}

// ParseSpec resolves a policy spec: a registered name (see Builtins; any
// "depth<N>" also resolves), or an ad-hoc chain of key=value components
// joined with "+", mirroring scenario.Parse:
//
//	order=fairshare|fcfs|sjf|lxf|widest|narrowest|edf
//	                                                queue order (default fairshare; edf:
//	                                                earliest submit+SLO-wait-target first,
//	                                                breach-risk users promoted)
//	bf=none|noguarantee|easy|depth|conservative|consdyn
//	                                                backfill discipline (default noguarantee)
//	starve=24h[.all|.nonheavy|.q75|.abs280h]        starvation-queue threshold + admission
//	                                                (q<N>: above the N-th usage quantile;
//	                                                abs<S>: above S decayed proc-seconds)
//	depth=2                                         reservation depth (with starve or bf=depth)
//	max=72h                                         maximum-runtime limit (simulator-enforced)
//	preempt=reserve|deadline[.lowpri|.newest]       checkpoint preemption: trigger (blocked
//	                                                reservation / missed SLO deadline) and
//	                                                victim rule (default lowpri)
//
// Example: "order=fairshare+bf=easy+starve=24h.nonheavy+depth=2". Parse
// errors name the byte position of the offending component; so do the
// combinations the composition table rejects for a flat run (see rules).
func ParseSpec(spec string) (Spec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Spec{}, fmt.Errorf("sched: empty policy spec")
	}
	if s, ok := Lookup(spec); ok {
		return s, nil
	}
	if !strings.Contains(spec, "=") {
		return Spec{}, fmt.Errorf("sched: unknown policy %q (want a registered name — see -list-policies — or an order=/bf=/starve=/depth=/max=/preempt= chain)", spec)
	}
	var s Spec
	pos := 0
	for _, part := range strings.Split(spec, "+") {
		if err := parseComponent(spec, part, pos, &s); err != nil {
			return Spec{}, fmt.Errorf("sched: policy spec %q: %w", spec, err)
		}
		pos += len(part) + 1 // the '+' separator
	}
	// parseComponent vetted each component; the table vets how they combine.
	s = s.normalized()
	if err := compose(spec, s, Flat); err != nil {
		return Spec{}, err
	}
	s.Key = s.Canonical()
	return s, nil
}

// parseComponent parses one key=value component at byte position pos of the
// full spec, accumulating into s.
func parseComponent(spec, part string, pos int, s *Spec) error {
	trimmed := strings.TrimSpace(part)
	pos += strings.Index(part, trimmed) // account for leading spaces
	key, val, ok := strings.Cut(trimmed, "=")
	if !ok {
		return fmt.Errorf("position %d: component %q is not key=value (want order=, bf=, starve=, depth=, max= or preempt=)", pos, trimmed)
	}
	if first, _ := componentPos(spec, key); first != pos {
		return fmt.Errorf("position %d: duplicate %s= (first at position %d)", pos, key, first)
	}
	valPos := pos + len(key) + 1
	switch key {
	case "order":
		if _, err := OrderByName(val); err != nil {
			return fmt.Errorf("position %d: %w", valPos, err)
		}
		s.Order = val
	case "bf":
		if !slices.Contains(backfills, val) {
			return fmt.Errorf("position %d: unknown backfill %q (want %s)", valPos, val, strings.Join(backfills, ", "))
		}
		s.Backfill = val
	case "starve":
		dur, heavy, _ := strings.Cut(val, ".")
		w, err := ParseDur(dur)
		if err != nil {
			return fmt.Errorf("position %d: starve wait: %w", valPos, err)
		}
		if w <= 0 {
			return fmt.Errorf("position %d: starve wait %q must be positive", valPos, dur)
		}
		if heavy == "" {
			heavy = HeavyAll
		}
		norm, err := normalizeHeavy(heavy)
		if err != nil {
			return fmt.Errorf("position %d: %w", valPos+len(dur)+1, err)
		}
		s.Wait, s.Heavy = w, norm
	case "depth":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return fmt.Errorf("position %d: depth %q: want an integer >= 1", valPos, val)
		}
		s.Depth = n
	case "max":
		m, err := ParseDur(val)
		if err != nil {
			return fmt.Errorf("position %d: max runtime: %w", valPos, err)
		}
		if m <= 0 {
			return fmt.Errorf("position %d: max runtime %q must be positive", valPos, val)
		}
		s.MaxRuntime = m
	case "preempt":
		trigger, victim, hasVictim := strings.Cut(val, ".")
		if !slices.Contains(preemptTriggers, trigger) {
			return fmt.Errorf("position %d: unknown preempt trigger %q (want %s)",
				valPos, trigger, strings.Join(preemptTriggers, ", "))
		}
		if !hasVictim {
			victim = VictimLowPri
		}
		if !slices.Contains(preemptVictims, victim) {
			return fmt.Errorf("position %d: unknown preempt victim %q (want %s)",
				valPos+len(trigger)+1, victim, strings.Join(preemptVictims, ", "))
		}
		s.PreemptTrigger, s.PreemptVictim = trigger, victim
	default:
		return fmt.Errorf("position %d: unknown component %q (want order, bf, starve, depth, max or preempt)", pos, key)
	}
	return nil
}

const (
	hourSeconds = 3600
	daySeconds  = 24 * hourSeconds
	weekSeconds = 7 * daySeconds
)

// ParseDur parses a duration with optional unit suffix s/m/h/d/w; a bare
// number is seconds. Durations with a "." would collide with the spec
// grammars' list separator, so only integers are accepted, and a value
// whose seconds overflow int64 is rejected rather than wrapped. The policy
// and scenario grammars share it.
func ParseDur(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty duration")
	}
	orig := s
	mult := int64(1)
	switch s[len(s)-1] {
	case 's':
		s = s[:len(s)-1]
	case 'm':
		mult, s = 60, s[:len(s)-1]
	case 'h':
		mult, s = hourSeconds, s[:len(s)-1]
	case 'd':
		mult, s = daySeconds, s[:len(s)-1]
	case 'w':
		mult, s = weekSeconds, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q (want e.g. 90, 15m, 2h, 7d, 4w)", s)
	}
	if n > math.MaxInt64/mult || n < math.MinInt64/mult {
		return 0, fmt.Errorf("duration %q overflows int64 seconds", orig)
	}
	return n * mult, nil
}

// fmtDur renders seconds compactly, preferring hours — the paper's
// vocabulary ("24h", "72h") — over days/weeks so canonical chains read like
// the policy names they expand.
func fmtDur(sec int64) string {
	switch {
	case sec != 0 && sec%hourSeconds == 0:
		return fmt.Sprintf("%dh", sec/hourSeconds)
	case sec != 0 && sec%60 == 0:
		return fmt.Sprintf("%dm", sec/60)
	default:
		return fmt.Sprintf("%ds", sec)
	}
}
