package sched

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// Order is the queue-ordering component of a composed policy: a strict weak
// ordering over queued jobs, evaluated against the live environment (the
// fairshare order reads decayed usage, the expansion-factor order reads the
// clock). Orders are stateless; all state lives in the environment.
//
// Every order but lxf is also a keyOrder: within one sort its priority is a
// per-job key, so the engines sort (key, entry) pairs instead of calling
// Less per comparison. lxf is the only comparator order: its
// cross-multiplied integer compare must not become a float.
type Order interface {
	// Name is the grammar token ("fairshare", "fcfs", "sjf", ...).
	Name() string
	// Less reports whether a schedules before b. It must be a strict weak
	// ordering and deterministic: implementations tie-break on submission
	// time then job id so equal-priority jobs keep a stable order.
	Less(env sim.Env, a, b *job.Job) bool
}

// keyOrder is an Order whose priority is a per-sort key: while no job
// starts, Less(a, b) holds exactly when
// fairshare.Compare(key(a), a, key(b), b) < 0 — the lower key first, ties
// by submission then id. Keys are read once per entry per sort call, and
// no job starts inside one. fs is the pass's fairshare tracker, fetched
// once per sort (nil in environments without one; only the fairshare
// order reads it).
type keyOrder interface {
	Order
	key(fs *fairshare.Tracker, j *job.Job) float64
	// epoch is the order's key epoch. A static order's keys change only
	// when v does: fcfs, sjf, widest and narrowest never move (v is
	// constant), and edf's v counts the users flagged at risk so far,
	// which grows exactly when some user's flag flips. fairshare is not
	// static: its keys are decayed usages, which move with the clock.
	epoch() (v int, static bool)
}

// constEpoch is the epoch of the orders whose keys are fixed per job.
type constEpoch struct{}

func (constEpoch) epoch() (int, bool) { return 0, true }

// queueSorter sorts an engine's queue entries (E is *job.Job or an engine's
// wrapper around one) into the order's priority order. A keyOrder's keys
// are read once per entry per sort into a reused buffer, so a warm sort
// allocates nothing; lxf goes through Less. Job ids are unique, so
// the priority order is total and both paths produce exactly the stable
// sort over Less.
//
// A kept sorter (keptSorter: a static order, driven by an engine that adds
// arrivals only through insert and otherwise only removes entries in place)
// also keeps its queue sorted between passes: sort is a no-op while the
// key epoch it last sorted under stands. Since the order is total, the
// kept queue is exactly the queue a full re-sort would give.
type queueSorter[E any] struct {
	order Order
	keys  keyOrder // order as a keyOrder, nil for lxf
	jobOf func(E) *job.Job
	buf   []keyedEntry[E]

	kept bool // the queue stays sorted between passes
	at   int  // kept only: an epoch the queue is sorted under (an empty queue is sorted under any)
}

// keyedEntry is one queue entry with its per-pass priority key.
type keyedEntry[E any] struct {
	key float64
	job *job.Job
	e   E
}

func newQueueSorter[E any](o Order, jobOf func(E) *job.Job) queueSorter[E] {
	ko, _ := o.(keyOrder)
	return queueSorter[E]{order: o, keys: ko, jobOf: jobOf}
}

// jobSorter is the queueSorter over plain job queues.
func jobSorter(o Order) queueSorter[*job.Job] {
	return newQueueSorter(o, func(j *job.Job) *job.Job { return j })
}

// keptSorter is the jobSorter of an engine that keeps its queue sorted
// between passes; it is kept only when the order is static (see keyOrder).
func keptSorter(o Order) queueSorter[*job.Job] {
	s := jobSorter(o)
	if s.keys != nil {
		_, s.kept = s.keys.epoch()
	}
	return s
}

// current reports whether a kept sorter's queue is sorted under the
// order's present keys.
func (s *queueSorter[E]) current() bool {
	if !s.kept {
		return false
	}
	v, _ := s.keys.epoch()
	return v == s.at
}

// insert adds an arriving entry to q and returns the grown queue. A kept
// queue that is current takes it at its binary-search position on fresh
// keys, so it stays sorted; any other queue appends it for the next sort.
func (s *queueSorter[E]) insert(env sim.Env, q []E, e E) []E {
	if !s.current() {
		return append(q, e)
	}
	fs := env.Fairshare()
	j := s.jobOf(e)
	k := s.keys.key(fs, j)
	i, _ := slices.BinarySearchFunc(q, e, func(x, _ E) int {
		xj := s.jobOf(x)
		return fairshare.Compare(s.keys.key(fs, xj), xj, k, j)
	})
	return slices.Insert(q, i, e)
}

// sort stable-sorts q into priority order and reports whether it was out of
// order (false means q is untouched). A non-nil pre orders entries ahead of
// the priority — the conservative engine's reservation starts — and answers
// 0 to fall through to it. A kept sorter whose queue is current returns
// false without reading a key.
func (s *queueSorter[E]) sort(env sim.Env, q []E, pre func(a, b E) int) bool {
	if s.kept {
		if s.current() {
			return false
		}
		s.at, _ = s.keys.epoch()
	}
	if len(q) < 2 {
		return false
	}
	if s.keys == nil {
		return s.sortByLess(env, q, pre)
	}
	fs := env.Fairshare()
	buf := s.buf[:0]
	for _, e := range q {
		j := s.jobOf(e)
		buf = append(buf, keyedEntry[E]{key: s.keys.key(fs, j), job: j, e: e})
	}
	s.buf = buf
	cmp := func(a, b keyedEntry[E]) int {
		if pre != nil {
			if c := pre(a.e, b.e); c != 0 {
				return c
			}
		}
		return fairshare.Compare(a.key, a.job, b.key, b.job)
	}
	moved := !slices.IsSortedFunc(buf, cmp)
	if moved {
		slices.SortStableFunc(buf, cmp)
		for i := range buf {
			q[i] = buf[i].e
		}
	}
	return moved
}

// sortByLess is sort for the comparator order, lxf. Its order check runs
// from the tail, where arrivals land, so an out-of-order arrival costs one
// Less call before the sort.
func (s *queueSorter[E]) sortByLess(env sim.Env, q []E, pre func(a, b E) int) bool {
	less := func(a, b E) bool {
		if pre != nil {
			if c := pre(a, b); c != 0 {
				return c < 0
			}
		}
		return s.order.Less(env, s.jobOf(a), s.jobOf(b))
	}
	for n := len(q) - 1; n > 0; n-- {
		if less(q[n], q[n-1]) {
			sort.SliceStable(q, func(i, k int) bool { return less(q[i], q[k]) })
			return true
		}
	}
	return false
}

// arrivalLess is the shared FCFS tie-break: submission time then job id.
func arrivalLess(a, b *job.Job) bool {
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// fcfsOrder schedules in arrival order (Figure 1 semantics).
type fcfsOrder struct{ constEpoch }

func (fcfsOrder) Name() string                             { return "fcfs" }
func (fcfsOrder) Less(_ sim.Env, a, b *job.Job) bool       { return arrivalLess(a, b) }
func (fcfsOrder) key(*fairshare.Tracker, *job.Job) float64 { return 0 }

// fairshareOrder is the Sandia decaying-usage priority: lowest decayed usage
// first (paper §2.1), ties FCFS.
type fairshareOrder struct{}

func (fairshareOrder) Name() string { return "fairshare" }
func (fairshareOrder) Less(env sim.Env, a, b *job.Job) bool {
	return env.Fairshare().Less(a, b)
}
func (fairshareOrder) key(fs *fairshare.Tracker, j *job.Job) float64 { return fs.Usage(j.User) }
func (fairshareOrder) epoch() (int, bool)                            { return 0, false }

// sjfOrder is shortest-job-first by the user's wall-clock estimate — the
// size-based ordering whose fairness trade-offs Dell'Amico et al. ("On Fair
// Size-Based Scheduling") study. Ties FCFS.
type sjfOrder struct{ constEpoch }

func (sjfOrder) Name() string { return "sjf" }
func (sjfOrder) Less(_ sim.Env, a, b *job.Job) bool {
	if a.Estimate != b.Estimate {
		return a.Estimate < b.Estimate
	}
	return arrivalLess(a, b)
}

// key is exact: estimates are bounded by job.MaxTime < 2^53.
func (sjfOrder) key(_ *fairshare.Tracker, j *job.Job) float64 { return float64(j.Estimate) }

// lxfOrder is largest-expansion-factor first: (wait + estimate)/estimate,
// descending — the slowdown-driven ordering of the heSRPT line of work
// (Berg et al.). A job's factor grows as it waits, so starvation
// self-corrects. Ties FCFS.
type lxfOrder struct{}

func (lxfOrder) Name() string { return "lxf" }
func (lxfOrder) Less(env sim.Env, a, b *job.Job) bool {
	now := env.Now()
	// Compare (wait_a+est_a)/est_a > (wait_b+est_b)/est_b without division:
	// cross-multiply by the (positive) estimates.
	ea, eb := a.Estimate, b.Estimate
	if ea < 1 {
		ea = 1
	}
	if eb < 1 {
		eb = 1
	}
	xa := (now - a.Submit + ea) * eb
	xb := (now - b.Submit + eb) * ea
	if xa != xb {
		return xa > xb
	}
	return arrivalLess(a, b)
}

// widestOrder schedules the widest jobs (most nodes) first; narrowest the
// opposite. Width-based orders probe the packing/fairness trade-off the
// paper's per-width breakdowns (Figures 16-19) measure. Ties FCFS.
type widestOrder struct{ constEpoch }

func (widestOrder) Name() string { return "widest" }
func (widestOrder) Less(_ sim.Env, a, b *job.Job) bool {
	if a.Nodes != b.Nodes {
		return a.Nodes > b.Nodes
	}
	return arrivalLess(a, b)
}
func (widestOrder) key(_ *fairshare.Tracker, j *job.Job) float64 { return -float64(j.Nodes) }

type narrowestOrder struct{ constEpoch }

func (narrowestOrder) Name() string { return "narrowest" }
func (narrowestOrder) Less(_ sim.Env, a, b *job.Job) bool {
	if a.Nodes != b.Nodes {
		return a.Nodes < b.Nodes
	}
	return arrivalLess(a, b)
}
func (narrowestOrder) key(_ *fairshare.Tracker, j *job.Job) float64 { return float64(j.Nodes) }

// DeadlineSource supplies per-user SLO wait targets: a user's deadline for
// a queued job is submit + target. slo.Assignment implements it; the
// interface is redeclared here so sched stays import-cycle-free below the
// SLO subsystem.
type DeadlineSource interface {
	// WaitTarget returns the user's maximum acceptable queuing delay in
	// seconds; ok is false when the user carries no wait target.
	WaitTarget(user int) (int64, bool)
}

// BreachRisk flags users whose SLO is at risk: the deadline-aware order
// promotes their queued jobs ahead of everything else.
// fairness.SLOObserver implements it over the online attainment tracker.
type BreachRisk interface {
	// UserAtRisk reports whether the user has already breached (or is
	// flagged as about to breach) an SLO target this run. A flag never
	// lifts within a run.
	UserAtRisk(user int) bool
	// FlaggedUsers counts the users UserAtRisk flags so far this run. Flags
	// never lift, so it grows exactly when some user's flag flips: it is
	// the edf order's key epoch.
	FlaggedUsers() int
}

// sloContext carries the per-run SLO signals a deadline-aware Composite
// reads: set by Composite.SetSLOContext, zero when the run has no SLO
// assignment (the edf order then degrades to FCFS and the deadline
// preemption trigger never fires).
type sloContext struct {
	deadlines DeadlineSource
	risk      BreachRisk
}

// deadline returns a job's SLO deadline (submit + the user's wait target);
// ok is false when the context is nil or the user carries no wait target.
// Wait targets are at most job.MaxTime (scenario.SLOTag and
// slo.Builder.AddClass reject more), so the sum cannot wrap.
func (c *sloContext) deadline(j *job.Job) (int64, bool) {
	if c == nil || c.deadlines == nil {
		return 0, false
	}
	w, ok := c.deadlines.WaitTarget(j.User)
	if !ok || w <= 0 {
		return 0, false
	}
	return j.Submit + w, true
}

// atRisk reports whether the breach-risk signal flags the job's user.
func (c *sloContext) atRisk(j *job.Job) bool {
	return c != nil && c.risk != nil && c.risk.UserAtRisk(j.User)
}

// flagged counts the users the breach-risk signal flags so far (0 without
// one).
func (c *sloContext) flagged() int {
	if c == nil || c.risk == nil {
		return 0
	}
	return c.risk.FlaggedUsers()
}

// edfOrder is earliest-deadline-first over the per-user SLO wait targets:
// jobs of users the breach-risk signal flags sort first (ties by deadline),
// then targeted jobs by deadline (submit + wait target), then untargeted
// jobs in arrival order. Unlike the other orders it is stateful — it reads
// the run's SLO context — so every Composite gets a fresh instance wired to
// its own context instead of a shared singleton. The breach-risk signal
// moves only when a job starts or completes, never inside one sort call.
// A job's deadline is fixed and a user's flag flips at most once per run,
// so its keys move only when the flagged-user count does: that count is
// its key epoch, and a kept queue re-keys and re-sorts only on a flip.
type edfOrder struct {
	ctx *sloContext
}

func (*edfOrder) Name() string { return "edf" }

func (o *edfOrder) Less(_ sim.Env, a, b *job.Job) bool {
	if ra, rb := o.ctx.atRisk(a), o.ctx.atRisk(b); ra != rb {
		return ra
	}
	da, oka := o.ctx.deadline(a)
	db, okb := o.ctx.deadline(b)
	if oka != okb {
		return oka // targeted jobs ahead of untargeted ones
	}
	if oka && da != db {
		return da < db
	}
	return arrivalLess(a, b)
}

// edfClass spaces the key's four classes (at-risk targeted, at-risk
// untargeted, targeted, untargeted) above every deadline. A deadline is a
// submit (at most job.MaxTime, or the clock for a preemption remainder)
// plus a wait target (at most job.MaxTime), so it stays below 2^42 while
// the clock is below 3·2^40 s (about 100,000 years).
const edfClass = 1 << 42

// key is (2·!atRisk + !targeted)·2^42 + deadline, with deadline 0 for
// untargeted jobs so they tie into arrival order. It stays below 2^44, so
// it is exact in a float64.
func (o *edfOrder) key(_ *fairshare.Tracker, j *job.Job) float64 {
	var class int64
	if !o.ctx.atRisk(j) {
		class = 2
	}
	d, ok := o.ctx.deadline(j)
	if !ok {
		class++
	}
	return float64(class*edfClass + d)
}

func (o *edfOrder) epoch() (int, bool) { return o.ctx.flagged(), true }

// orders is the Order registry, in listing order. The edf entry is a
// context-free prototype for listing and validation; OrderByName returns a
// fresh instance so each Composite can attach its own SLO context.
var orders = []Order{
	fairshareOrder{},
	fcfsOrder{},
	sjfOrder{},
	lxfOrder{},
	widestOrder{},
	narrowestOrder{},
	&edfOrder{},
}

// OrderNames lists the registered queue orders in listing order.
func OrderNames() []string {
	out := make([]string, len(orders))
	for i, o := range orders {
		out[i] = o.Name()
	}
	return out
}

// OrderByName resolves a queue order by its grammar token. The stateless
// orders are shared singletons; "edf" returns a fresh instance (it carries
// a per-run SLO context the Composite attaches).
func OrderByName(name string) (Order, error) {
	if name == "edf" {
		return &edfOrder{}, nil
	}
	for _, o := range orders {
		if o.Name() == name {
			return o, nil
		}
	}
	return nil, fmt.Errorf("unknown order %q (want %s)", name, strings.Join(OrderNames(), ", "))
}
