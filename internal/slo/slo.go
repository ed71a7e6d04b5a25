// Package slo is the per-user service-level-objective subsystem: targets
// (maximum acceptable queuing delay, maximum acceptable bounded slowdown)
// assigned to users by scenario transforms, and the accounting that turns a
// simulation run into per-user and per-class attainment.
//
// The paper's central argument is that aggregate metrics hide per-user
// unfairness — its fairness figures are per-user wait and fair-start-time
// deviations. An SLO assignment makes that slicing operational: every user
// carries an explicit target, and a campaign reports which user classes a
// policy serves and which it starves. Dell'Amico et al. ("On Fair
// Size-Based Scheduling") motivate exactly this view — size-based policies
// look excellent in aggregate while specific user classes starve — and Berg
// et al. (heSRPT) frame per-job slowdown targets that map directly onto the
// slowdown half of a Target.
//
// The accounting core (Tracker) is shared by the online observer
// (fairness.SLOObserver, fed by simulator hooks as the run progresses) and
// the post-run reference (FromRecords, a from-scratch walk over
// sim.Result.Records): both feed the same judgment functions, and a
// differential suite pins their outputs equal on every workload shape. All
// per-event updates are commutative (sums, counts, maxima with
// order-independent tie-breaks), so the online accrual order and the
// record-sorted replay order reach identical state.
package slo

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"fairsched/internal/job"
	"fairsched/internal/sim"
	"fairsched/internal/userdex"
)

// SlowdownBound is the runtime floor of the bounded-slowdown judgment,
// mirroring metrics.SlowdownBound (the conventional 10 seconds). It is
// redeclared here because metrics sits above the fairness packages that
// consume slo.
const SlowdownBound = 10

// Target is one user's service-level objectives. Zero fields mean "no
// target of that kind"; a Target with both fields zero is no SLO at all.
type Target struct {
	// Wait is the maximum acceptable queuing delay in seconds (0: none).
	Wait int64
	// Slowdown is the maximum acceptable bounded slowdown (0: none). The
	// bounded slowdown of a job is (wait + run') / run' with run' =
	// max(realized runtime, SlowdownBound).
	Slowdown float64
}

// IsZero reports whether the target carries no objective.
func (t Target) IsZero() bool { return t.Wait <= 0 && t.Slowdown <= 0 }

// UserTarget ties one user to its class and targets.
type UserTarget struct {
	User   int
	Class  string
	Target Target
}

// Class is one named group of users sharing a target (a quantile band, the
// default band, or a single explicitly-tagged user).
type Class struct {
	Name   string
	Target Target
	Users  int // users assigned to the class
}

// Assignment is an immutable user -> SLO mapping for one workload. Built
// once per campaign cell (from the transformed workload) and shared
// read-only by every policy run of the cell, including concurrent ones.
type Assignment struct {
	classes  []Class
	classIdx map[string]int
	users    []UserTarget // ascending user id
	// idx maps user -> index into users on the paged user index: the
	// JobStarted/JobCompleted hooks hit it once per event, and at
	// population scale (quantile bands tag 10^5..10^6 users) the dense
	// pages beat a hash probe. Frozen at Build, so the concurrent
	// per-policy readers need no locking.
	idx     userdex.Map[int32]
	classOf []int // users[i]'s index into classes
}

// NumUsers returns how many users carry a target.
func (a *Assignment) NumUsers() int {
	if a == nil {
		return 0
	}
	return len(a.users)
}

// Users returns the tagged users in ascending user-id order. The returned
// slice is a copy; the assignment itself stays immutable.
func (a *Assignment) Users() []UserTarget {
	if a == nil {
		return nil
	}
	return append([]UserTarget(nil), a.users...)
}

// Classes returns the classes in registration order (quantile bands
// ascending, then the default band, then explicit users — the canonical
// grammar order when the assignment came from a scenario spec).
func (a *Assignment) Classes() []Class {
	if a == nil {
		return nil
	}
	return append([]Class(nil), a.classes...)
}

// Lookup returns the target assigned to a user.
func (a *Assignment) Lookup(user int) (UserTarget, bool) {
	if a == nil {
		return UserTarget{}, false
	}
	i, ok := a.idx.Get(user)
	if !ok {
		return UserTarget{}, false
	}
	return a.users[i], true
}

// WaitTarget returns the user's maximum acceptable queuing delay in
// seconds; ok is false when the user carries no wait target. It implements
// sched.DeadlineSource: a queued job's SLO deadline is submit + target.
func (a *Assignment) WaitTarget(user int) (int64, bool) {
	if a == nil {
		return 0, false
	}
	// The EDF order calls this in every comparison: read the one field
	// rather than copying the user's whole UserTarget out through Lookup.
	i, ok := a.idx.Get(user)
	if !ok || a.users[i].Target.Wait <= 0 {
		return 0, false
	}
	return a.users[i].Target.Wait, true
}

// Builder accumulates an Assignment: classes registered first (their
// registration order is the report order), users tagged into them.
// Re-registering a class replaces its target in place; re-tagging a user
// moves it — later scenario transforms override earlier ones.
type Builder struct {
	classes  []Class
	classIdx map[string]int
	users    map[int]string // user -> class name
}

// NewBuilder returns an empty assignment builder.
func NewBuilder() *Builder {
	return &Builder{classIdx: make(map[string]int), users: make(map[int]string)}
}

// AddClass registers (or re-targets) a class.
func (b *Builder) AddClass(name string, t Target) {
	if i, ok := b.classIdx[name]; ok {
		b.classes[i].Target = t
		return
	}
	b.classIdx[name] = len(b.classes)
	b.classes = append(b.classes, Class{Name: name, Target: t})
}

// Tag assigns a user to a registered class; it panics on an unknown class
// (a programming error — the scenario parser registers every class it
// names).
func (b *Builder) Tag(user int, class string) {
	if _, ok := b.classIdx[class]; !ok {
		panic(fmt.Sprintf("slo: Tag(%d, %q): unregistered class", user, class))
	}
	b.users[user] = class
}

// Build freezes the assignment. Classes that tagged no users are kept (the
// report shows them empty); nil is returned when no user carries a
// non-zero target.
func (b *Builder) Build() *Assignment {
	a := &Assignment{
		classes:  append([]Class(nil), b.classes...),
		classIdx: make(map[string]int, len(b.classes)),
	}
	for i, c := range a.classes {
		a.classIdx[c.Name] = i
	}
	ids := make([]int, 0, len(b.users))
	for u := range b.users {
		ids = append(ids, u)
	}
	sort.Ints(ids)
	for _, u := range ids {
		ci := a.classIdx[b.users[u]]
		if a.classes[ci].Target.IsZero() {
			continue // best-effort class: no objective, nothing to track
		}
		a.idx.Set(u, int32(len(a.users)))
		a.users = append(a.users, UserTarget{User: u, Class: a.classes[ci].Name, Target: a.classes[ci].Target})
		a.classOf = append(a.classOf, ci)
		a.classes[ci].Users++
	}
	if len(a.users) == 0 {
		return nil
	}
	return a
}

// UserStats accrues one user's SLO outcomes over a run. Every field is
// accrued commutatively, so online (event-order) and post-run
// (record-order) accounting agree exactly.
type UserStats struct {
	User  int
	Class string
	// Jobs counts the measured logical jobs: split-chain restarts
	// (Segment > 1) are skipped, mirroring the fairness metric — the chain
	// was judged once, at its first segment.
	Jobs int
	// Attained counts jobs that met every applicable target.
	Attained int
	// WaitBreaches counts jobs whose queuing delay exceeded Target.Wait,
	// with the excess accrued into TotalWaitBreach and the breach
	// distribution (per class).
	WaitBreaches    int
	TotalWaitBreach int64 // seconds of excess wait, summed over breaches
	WorstWaitBreach int64 // largest single excess
	// WorstWaitJob identifies the worst breach (ties: lower job id).
	WorstWaitJob job.ID
	// UnfairWait counts wait breaches the fair reference schedule would
	// have avoided (fair start within target): the policy's ordering, not
	// the offered load, caused the miss. InfeasibleWait counts breaches
	// where even the fair start misses the target — the objective was
	// unattainable under the contention at arrival. Both stay zero when no
	// fair-start signal is attached.
	UnfairWait     int
	InfeasibleWait int
	// SlowBreaches counts jobs whose bounded slowdown exceeded
	// Target.Slowdown; WorstSlowdown is the largest observed.
	SlowBreaches  int
	WorstSlowdown float64
}

// Tracker is the accounting core: per-user counters in a dense slice plus
// one breach histogram per class, all preallocated at construction so the
// steady-state judgment path allocates nothing.
type Tracker struct {
	asg     *Assignment
	users   []UserStats // aligned with asg.users
	hists   [][]int64   // per class: breach-magnitude histogram
	allHist []int64     // all classes combined (the report's total row)
	// chained enables chain-level slowdown judgment for SplitChained runs
	// (see SetChained); chains holds the in-flight chain states, keyed by
	// the original job's id.
	chained bool
	chains  map[job.ID]*chainState
}

// chainState carries a split chain's accounting between its first
// segment's start and its last segment's completion (chained mode only).
type chainState struct {
	si     int   // index into Tracker.users
	submit int64 // the original submission time (segment 1's Submit)
	waitOK bool  // segment 1 met the wait target
	runSum int64 // realized runtime summed over completed segments
}

// SetChained selects chain-level slowdown judgment for runs splitting
// jobs with sim.SplitChained: a chain's slowdown is judged once, at its
// LAST segment's completion, as (last completion - original submit) over
// the chain's total realized runtime — so requeue delays between segments
// are priced into the objective (DESIGN.md §11). The wait target is still
// judged at the first segment's start (the chain's queuing delay). In the
// default (non-chained) mode, restarts are skipped and the chain is
// judged once at its first segment.
//
// Killed chains are judged on realized service: a chain whose final
// segment dies at its wall-clock limit still resolves at that kill (kills
// run the same completion hooks), with runSum summing what actually ran —
// consistent with the non-chained convention that a killed job's slowdown
// uses its realized (truncated) runtime. Interior split segments cannot
// be killed (their estimate equals their runtime by construction), so a
// chain always reaches its final segment and no chain state outlives the
// run. The same holds for preemption-created chains: the remainder always
// resubmits and eventually completes (or is killed at its clamped
// estimate, which also resolves the chain).
func (t *Tracker) SetChained(on bool) { t.chained = on }

// UserBreached reports whether the user has at least one breach (wait or
// slowdown) on the books so far this run. fairness.SLOObserver forwards it
// as the online breach-risk signal behind sched.BreachRisk: the
// deadline-aware order promotes a user's queued jobs once the user starts
// breaching. Users outside the assignment never read as breached.
func (t *Tracker) UserBreached(user int) bool {
	si, ok := t.asg.idx.Get(user)
	if !ok {
		return false
	}
	u := &t.users[si]
	return u.WaitBreaches > 0 || u.SlowBreaches > 0
}

// NewTracker builds a tracker over an assignment. The assignment is read
// only; one tracker serves one run. A nil assignment (Builder.Build with
// no trackable user) yields an empty tracker: nothing is measured.
func NewTracker(asg *Assignment) *Tracker {
	if asg == nil {
		asg = &Assignment{}
	}
	t := &Tracker{
		asg:     asg,
		users:   make([]UserStats, len(asg.users)),
		hists:   make([][]int64, len(asg.classes)),
		allHist: make([]int64, numBreachBins),
	}
	for i, ut := range asg.users {
		t.users[i] = UserStats{User: ut.User, Class: ut.Class}
	}
	for i := range t.hists {
		t.hists[i] = make([]int64, numBreachBins)
	}
	return t
}

// JobStarted judges the wait-time half of a job's SLO the moment it
// starts: queueing delay against Target.Wait, and — when a fair start time
// is supplied — whether a breach was the policy's doing (the fair
// reference schedule met the target) or infeasible under the contention at
// arrival. Jobs with no slowdown target settle their overall attainment
// here; the rest settle at JobCompleted. Split-chain restarts are skipped.
func (t *Tracker) JobStarted(j *job.Job, start, fairStart int64, hasFST bool) {
	if j.Segment > 1 {
		return
	}
	si, ok := t.asg.idx.Get(j.User)
	if !ok {
		return
	}
	u := &t.users[si]
	tgt := t.asg.users[si].Target
	u.Jobs++
	wait := start - j.Submit
	waitOK := tgt.Wait <= 0 || wait <= tgt.Wait
	if !waitOK {
		breach := wait - tgt.Wait
		u.WaitBreaches++
		u.TotalWaitBreach += breach
		if breach > u.WorstWaitBreach || (breach == u.WorstWaitBreach && j.ID < u.WorstWaitJob) {
			u.WorstWaitBreach = breach
			u.WorstWaitJob = j.ID
		}
		if hasFST {
			if fairStart-j.Submit <= tgt.Wait {
				u.UnfairWait++
			} else {
				u.InfeasibleWait++
			}
		}
		bin := breachBin(breach)
		t.hists[t.asg.classOf[si]][bin]++
		t.allHist[bin]++
	}
	if tgt.Slowdown <= 0 {
		if waitOK {
			u.Attained++
		}
		return
	}
	if t.chained && j.Parent != 0 && j.Segments > 1 {
		// Chain-level slowdown: remember the first segment's outcome until
		// the last segment completes.
		if t.chains == nil {
			t.chains = make(map[job.ID]*chainState)
		}
		t.chains[j.Parent] = &chainState{si: int(si), submit: j.Submit, waitOK: waitOK}
	}
}

// JobCompleted judges the slowdown half at completion (the realized
// runtime is only known then) and settles overall attainment for jobs
// carrying a slowdown target. The wait outcome is recomputed from (start,
// submit) — both are in hand — so no per-job state survives between the
// two hooks. Split-chain restarts are skipped.
func (t *Tracker) JobCompleted(j *job.Job, start, complete int64) {
	if t.chained && j.Parent != 0 && j.Segments > 1 {
		t.chainCompleted(j, start, complete)
		return
	}
	if j.Segment > 1 {
		return
	}
	si, ok := t.asg.idx.Get(j.User)
	if !ok {
		return
	}
	tgt := t.asg.users[si].Target
	if tgt.Slowdown <= 0 {
		return // attainment settled at start
	}
	u := &t.users[si]
	wait := start - j.Submit
	run := float64(complete - start)
	if run < SlowdownBound {
		run = SlowdownBound
	}
	slow := (float64(wait) + run) / run
	slowOK := slow <= tgt.Slowdown
	if !slowOK {
		u.SlowBreaches++
		if slow > u.WorstSlowdown {
			u.WorstSlowdown = slow
		}
	}
	if slowOK && (tgt.Wait <= 0 || wait <= tgt.Wait) {
		u.Attained++
	}
}

// chainCompleted accrues one chain segment's realized runtime and, at the
// last segment, judges the chain's slowdown against the original submit:
// slow = (total wait + run') / run' with run' = max(total realized
// runtime, SlowdownBound) and total wait = last completion - original
// submit - total runtime. Chains whose user carries no slowdown target
// (or no target at all) have no state and are skipped — their attainment
// settled at the first segment's start.
func (t *Tracker) chainCompleted(j *job.Job, start, complete int64) {
	st, ok := t.chains[j.Parent]
	if !ok {
		// No state with a head segment in hand means the chain was created
		// mid-flight by checkpoint preemption: the head started as an
		// ordinary job (no chain markers yet), so JobStarted recorded
		// nothing. The simulator mutates the head's Job in place before
		// completing it and leaves Submit untouched, so everything
		// JobStarted would have seen is still here — recreate the state
		// retroactively, exactly as a FromRecordsChained replay would.
		// Stateless NON-head segments belong to users with no slowdown
		// target (or no target at all); their attainment settled at the
		// head's start.
		if j.Segment != 1 {
			return
		}
		si, idxOK := t.asg.idx.Get(j.User)
		if !idxOK {
			return
		}
		tgt := t.asg.users[si].Target
		if tgt.Slowdown <= 0 {
			return
		}
		wait := start - j.Submit
		st = &chainState{si: int(si), submit: j.Submit, waitOK: tgt.Wait <= 0 || wait <= tgt.Wait}
		if t.chains == nil {
			t.chains = make(map[job.ID]*chainState)
		}
		t.chains[j.Parent] = st
	}
	st.runSum += complete - start
	if j.Segment < j.Segments {
		return
	}
	delete(t.chains, j.Parent)
	u := &t.users[st.si]
	tgt := t.asg.users[st.si].Target
	run := float64(st.runSum)
	if run < SlowdownBound {
		run = SlowdownBound
	}
	waits := float64(complete - st.submit - st.runSum)
	slow := (waits + run) / run
	slowOK := slow <= tgt.Slowdown
	if !slowOK {
		u.SlowBreaches++
		if slow > u.WorstSlowdown {
			u.WorstSlowdown = slow
		}
	}
	if slowOK && st.waitOK {
		u.Attained++
	}
}

// Merge folds another tracker over the same assignment into t: counters
// sum, maxima combine with their order-independent tie-breaks, histograms
// add bin-wise. Partitioned runs track each partition with its own
// tracker and merge afterwards; since every accrual is commutative, the
// merged state equals a single tracker fed all partitions' events.
// Both trackers must be fully settled (no in-flight chains).
func (t *Tracker) Merge(o *Tracker) {
	if len(t.chains) > 0 || len(o.chains) > 0 {
		panic("slo: Merge with in-flight chain state")
	}
	for i := range t.users {
		u, ou := &t.users[i], &o.users[i]
		u.Jobs += ou.Jobs
		u.Attained += ou.Attained
		u.WaitBreaches += ou.WaitBreaches
		u.TotalWaitBreach += ou.TotalWaitBreach
		if ou.WorstWaitBreach > u.WorstWaitBreach ||
			(ou.WorstWaitBreach == u.WorstWaitBreach && ou.WorstWaitBreach > 0 && ou.WorstWaitJob < u.WorstWaitJob) {
			u.WorstWaitBreach = ou.WorstWaitBreach
			u.WorstWaitJob = ou.WorstWaitJob
		}
		u.UnfairWait += ou.UnfairWait
		u.InfeasibleWait += ou.InfeasibleWait
		u.SlowBreaches += ou.SlowBreaches
		if ou.WorstSlowdown > u.WorstSlowdown {
			u.WorstSlowdown = ou.WorstSlowdown
		}
	}
	for ci := range t.hists {
		for b := range t.hists[ci] {
			t.hists[ci][b] += o.hists[ci][b]
		}
	}
	for b := range t.allHist {
		t.allHist[b] += o.allHist[b]
	}
}

// PerUser returns a copy of the per-user stats in ascending user-id order.
func (t *Tracker) PerUser() []UserStats {
	return append([]UserStats(nil), t.users...)
}

// ClassStats aggregates one class's outcomes for reporting.
type ClassStats struct {
	Class  string
	Target Target
	// Users counts the class's tagged users; ActiveUsers those with at
	// least one measured job this run.
	Users       int
	ActiveUsers int
	Jobs        int
	Attained    int
	// Wait-breach aggregation (counts, fair/infeasible split, magnitudes).
	WaitBreaches    int
	UnfairWait      int
	InfeasibleWait  int
	TotalWaitBreach int64
	WorstWaitBreach int64
	SlowBreaches    int
	// BreachP95 is the 95th percentile of the wait-breach magnitudes,
	// estimated from the class's breach histogram (upper edge of the
	// covering bin, ≤ 12.5% relative error; see breachBin). 0 when the
	// class had no wait breaches.
	BreachP95 int64
}

// AttainPct returns the share of measured jobs that met every applicable
// target, 0..100; 100 for a class with no jobs (nothing was violated).
func (c ClassStats) AttainPct() float64 {
	if c.Jobs == 0 {
		return 100
	}
	return 100 * float64(c.Attained) / float64(c.Jobs)
}

// Breached returns the jobs that missed at least one target.
func (c ClassStats) Breached() int { return c.Jobs - c.Attained }

// MaxOffenders bounds the worst-offender list a Summary carries: the
// top-K most-breached users of the run. K is a small constant so a cell
// summary stays memory-light no matter how many users the scenario tagged.
const MaxOffenders = 3

// Summary is the per-run SLO report: one row per class plus the combined
// total. It is memory-light (no unbounded per-user rows — Offenders is
// capped at MaxOffenders) so campaign cell summaries can carry one per
// policy.
type Summary struct {
	Classes []ClassStats
	Total   ClassStats // Class "(all)", Target zero
	// Offenders are the most-breached users, worst first: most breached
	// jobs, ties broken by larger total wait-breach excess, then lower
	// user id — an order-independent ranking, so online and reference
	// accounting select identical offenders. Empty when every tagged user
	// attained every target.
	Offenders []UserStats
}

// Summary aggregates the tracker into class rows. Assembly walks the
// per-user states and histograms once — O(users + classes), never the
// records.
func (t *Tracker) Summary() *Summary {
	s := &Summary{Classes: make([]ClassStats, len(t.asg.classes))}
	for i, c := range t.asg.classes {
		s.Classes[i] = ClassStats{Class: c.Name, Target: c.Target, Users: c.Users}
	}
	for i := range t.users {
		u := &t.users[i]
		c := &s.Classes[t.asg.classOf[i]]
		if u.Jobs > 0 {
			c.ActiveUsers++
		}
		c.Jobs += u.Jobs
		c.Attained += u.Attained
		c.WaitBreaches += u.WaitBreaches
		c.UnfairWait += u.UnfairWait
		c.InfeasibleWait += u.InfeasibleWait
		c.TotalWaitBreach += u.TotalWaitBreach
		if u.WorstWaitBreach > c.WorstWaitBreach {
			c.WorstWaitBreach = u.WorstWaitBreach
		}
		c.SlowBreaches += u.SlowBreaches
	}
	s.Total = ClassStats{Class: "(all)"}
	for i := range s.Classes {
		c := &s.Classes[i]
		c.BreachP95 = histP95(t.hists[i])
		s.Total.Users += c.Users
		s.Total.ActiveUsers += c.ActiveUsers
		s.Total.Jobs += c.Jobs
		s.Total.Attained += c.Attained
		s.Total.WaitBreaches += c.WaitBreaches
		s.Total.UnfairWait += c.UnfairWait
		s.Total.InfeasibleWait += c.InfeasibleWait
		s.Total.TotalWaitBreach += c.TotalWaitBreach
		if c.WorstWaitBreach > s.Total.WorstWaitBreach {
			s.Total.WorstWaitBreach = c.WorstWaitBreach
		}
		s.Total.SlowBreaches += c.SlowBreaches
	}
	s.Total.BreachP95 = histP95(t.allHist)
	s.Offenders = t.offenders(MaxOffenders)
	return s
}

// Breached returns the user's jobs that missed at least one target.
func (u *UserStats) Breached() int { return u.Jobs - u.Attained }

// worseOffender ranks two users: more breached jobs first, then larger
// total wait-breach excess, then lower user id. Every key is accrued
// commutatively, so the ranking is independent of accounting order.
func worseOffender(a, b *UserStats) bool {
	if a.Breached() != b.Breached() {
		return a.Breached() > b.Breached()
	}
	if a.TotalWaitBreach != b.TotalWaitBreach {
		return a.TotalWaitBreach > b.TotalWaitBreach
	}
	return a.User < b.User
}

// offenders selects the top-k most-breached users in one bounded pass over
// the per-user states: a k-slot insertion list, never a sort of the full
// user population, so the cost is O(users × k) time and O(k) space even
// over the large tagged populations the quantile bands produce.
func (t *Tracker) offenders(k int) []UserStats {
	top := make([]UserStats, 0, k)
	for i := range t.users {
		u := &t.users[i]
		if u.Breached() == 0 {
			continue
		}
		if len(top) == k && !worseOffender(u, &top[k-1]) {
			continue
		}
		pos := len(top)
		for pos > 0 && worseOffender(u, &top[pos-1]) {
			pos--
		}
		if len(top) < k {
			top = append(top, UserStats{})
		}
		copy(top[pos+1:], top[pos:])
		top[pos] = *u
	}
	return top
}

// sloFields maps each per-class metric key to its accessor, in listing
// order. The hypothesis harness addresses them as "slo.<class>.<field>"
// with class "all" resolving to the combined total row.
var sloFields = []struct {
	key string
	get func(ClassStats) float64
}{
	{"attain_pct", func(c ClassStats) float64 { return c.AttainPct() }},
	{"jobs", func(c ClassStats) float64 { return float64(c.Jobs) }},
	{"attained", func(c ClassStats) float64 { return float64(c.Attained) }},
	{"breached", func(c ClassStats) float64 { return float64(c.Breached()) }},
	{"users", func(c ClassStats) float64 { return float64(c.Users) }},
	{"active_users", func(c ClassStats) float64 { return float64(c.ActiveUsers) }},
	{"wait_breaches", func(c ClassStats) float64 { return float64(c.WaitBreaches) }},
	{"unfair_wait", func(c ClassStats) float64 { return float64(c.UnfairWait) }},
	{"infeasible_wait", func(c ClassStats) float64 { return float64(c.InfeasibleWait) }},
	{"total_wait_breach", func(c ClassStats) float64 { return float64(c.TotalWaitBreach) }},
	{"worst_wait_breach", func(c ClassStats) float64 { return float64(c.WorstWaitBreach) }},
	{"slow_breaches", func(c ClassStats) float64 { return float64(c.SlowBreaches) }},
	{"breach_p95", func(c ClassStats) float64 { return float64(c.BreachP95) }},
}

// FieldKeys lists the per-class metric keys in listing order.
func FieldKeys() []string {
	out := make([]string, len(sloFields))
	for i, f := range sloFields {
		out[i] = f.key
	}
	return out
}

// ValueByKey resolves a "<class>.<field>" metric key against the summary;
// class "all" addresses the combined total row. A class the assignment
// never registered is an error, not a zero — a hypothesis naming a stale
// class must refute loudly.
func (s *Summary) ValueByKey(key string) (float64, error) {
	class, field, ok := strings.Cut(key, ".")
	if !ok {
		return 0, fmt.Errorf("slo: metric key %q: want <class>.<field> (class \"all\" for the total row)", key)
	}
	var row *ClassStats
	if class == "all" {
		row = &s.Total
	} else {
		for i := range s.Classes {
			if s.Classes[i].Class == class {
				row = &s.Classes[i]
				break
			}
		}
	}
	if row == nil {
		names := make([]string, len(s.Classes))
		for i, c := range s.Classes {
			names[i] = c.Class
		}
		return 0, fmt.Errorf("slo: metric key %q: unknown class %q (have %s, and \"all\")",
			key, class, strings.Join(names, ", "))
	}
	for _, f := range sloFields {
		if f.key == field {
			return f.get(*row), nil
		}
	}
	return 0, fmt.Errorf("slo: metric key %q: unknown field %q (want %s)",
		key, field, strings.Join(FieldKeys(), ", "))
}

// FromRecords is the post-run reference: a from-scratch replay of the
// finished records through a fresh tracker, judging each record with the
// same functions the online observer uses. The differential suite pins the
// observer byte-identical to this on every workload shape.
func FromRecords(asg *Assignment, records []*sim.Record, fst map[job.ID]int64) *Tracker {
	return fromRecords(asg, records, fst, false)
}

// FromRecordsChained is FromRecords with chain-level slowdown judgment
// (SetChained), the reference for SplitChained runs. Records are sorted
// by (submit, id) and a chain's segment submits strictly increase, so the
// replay meets segments in chain order just as the online observer does.
func FromRecordsChained(asg *Assignment, records []*sim.Record, fst map[job.ID]int64) *Tracker {
	return fromRecords(asg, records, fst, true)
}

func fromRecords(asg *Assignment, records []*sim.Record, fst map[job.ID]int64, chained bool) *Tracker {
	t := NewTracker(asg)
	t.SetChained(chained)
	for _, r := range records {
		f, ok := fst[r.Job.ID]
		t.JobStarted(r.Job, r.Start, f, ok)
		t.JobCompleted(r.Job, r.Start, r.Complete)
	}
	return t
}

// Breach histogram: sub-binned powers of two (an HDR-histogram-style
// layout). Values below 2^subBits land in their own exact bin; above that,
// each power-of-two range splits into 2^subBits equal sub-ranges, so a
// quantile read off the bin edges carries at most 1/2^subBits relative
// error. Integer-only, so the online and reference paths agree bit for bit
// on every platform.
const (
	subBits       = 3 // 8 sub-bins per octave: ≤ 12.5% quantile error
	numBreachBins = (63 - subBits + 1) << subBits
)

// breachBin maps a positive breach magnitude (seconds) to its bin.
func breachBin(v int64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // e >= subBits
	shift := e - subBits
	return int(int64(shift+1)<<subBits) + int((v>>shift)&(1<<subBits-1))
}

// binUpperEdge returns the largest value mapping to bin b (the quantile
// estimate read back from the histogram).
func binUpperEdge(b int) int64 {
	block := b >> subBits
	if block == 0 {
		return int64(b)
	}
	off := int64(b & (1<<subBits - 1))
	e := block + subBits - 1
	lo := int64(1)<<e + off<<(e-subBits)
	return lo + int64(1)<<(e-subBits) - 1
}

// histP95 returns the 95th-percentile upper-edge estimate of a breach
// histogram, 0 for an empty one.
func histP95(hist []int64) int64 {
	var n int64
	for _, c := range hist {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := (95*n + 99) / 100 // 1-based ceiling rank
	var cum int64
	for b, c := range hist {
		cum += c
		if cum >= rank {
			return binUpperEdge(b)
		}
	}
	return binUpperEdge(len(hist) - 1)
}
