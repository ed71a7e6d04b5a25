package sched

import (
	"fmt"
	"slices"
	"strings"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// Order is the queue-ordering component of a composed policy: it ranks
// queued jobs by a per-job priority key read against the live environment
// (the fairshare order reads decayed usage, the expansion-factor order
// reads the clock). a schedules before b exactly when
// fairshare.Compare(key(a), a, key(b), b) < 0 — the lower key first, ties
// by submission then id. Job ids are unique, so the order is total. Orders
// are stateless; all state lives in the environment (and, for edf, in the
// run's SLO context).
type Order interface {
	// Name is the grammar token ("fairshare", "fcfs", "sjf", ...).
	Name() string
	// key is j's priority key at clock now. Keys are read once per entry
	// per sort call, and no job starts inside one. fs is the pass's
	// fairshare tracker, fetched once per sort (nil in environments
	// without one; only the fairshare order reads it).
	key(fs *fairshare.Tracker, now int64, j *job.Job) float64
	// epoch is the order's key epoch. A static order's keys change only
	// when v does: fcfs, sjf, widest and narrowest never move (v is
	// constant), and edf's v counts the users flagged at risk so far,
	// which grows exactly when some user's flag flips. fairshare and lxf
	// are not static: their keys are decayed usages and expansion factors,
	// which move with the clock.
	epoch() (v int, static bool)
}

// constEpoch is the epoch of the orders whose keys are fixed per job.
type constEpoch struct{}

func (constEpoch) epoch() (int, bool) { return 0, true }

// clockEpoch is the epoch of the orders whose keys move with the clock.
type clockEpoch struct{}

func (clockEpoch) epoch() (int, bool) { return 0, false }

// queueSorter sorts an engine's queue entries (E is *job.Job or an engine's
// wrapper around one) into the order's priority order. The keys are read
// once per entry per sort into a reused buffer, so a warm sort allocates
// nothing. The priority order is total, so the result is the one sorted
// arrangement of the queue.
//
// A kept sorter (keptSorter: a static order, driven by an engine that adds
// arrivals only through insert and otherwise only removes entries in place)
// also keeps its queue sorted between passes: sort is a no-op while the
// key epoch it last sorted under stands. Since the order is total, the
// kept queue is exactly the queue a full re-sort would give.
type queueSorter[E any] struct {
	order Order
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
	return queueSorter[E]{order: o, jobOf: jobOf}
}

// jobSorter is the queueSorter over plain job queues.
func jobSorter(o Order) queueSorter[*job.Job] {
	return newQueueSorter(o, func(j *job.Job) *job.Job { return j })
}

// keptSorter is the jobSorter of an engine that keeps its queue sorted
// between passes; it is kept only when the order is static.
func keptSorter(o Order) queueSorter[*job.Job] {
	s := jobSorter(o)
	_, s.kept = o.epoch()
	return s
}

// current reports whether a kept sorter's queue is sorted under the
// order's present keys.
func (s *queueSorter[E]) current() bool {
	if !s.kept {
		return false
	}
	v, _ := s.order.epoch()
	return v == s.at
}

// insert adds an arriving entry to q and returns the grown queue. A kept
// queue that is current takes it at its binary-search position on fresh
// keys, so it stays sorted; any other queue appends it for the next sort.
func (s *queueSorter[E]) insert(env sim.Env, q []E, e E) []E {
	if !s.current() {
		return append(q, e)
	}
	fs, now := env.Fairshare(), env.Now()
	j := s.jobOf(e)
	k := s.order.key(fs, now, j)
	i, _ := slices.BinarySearchFunc(q, e, func(x, _ E) int {
		xj := s.jobOf(x)
		return fairshare.Compare(s.order.key(fs, now, xj), xj, k, j)
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
		s.at, _ = s.order.epoch()
	}
	if len(q) < 2 {
		return false
	}
	fs, now := env.Fairshare(), env.Now()
	buf := s.buf[:0]
	for _, e := range q {
		j := s.jobOf(e)
		buf = append(buf, keyedEntry[E]{key: s.order.key(fs, now, j), job: j, e: e})
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

// fcfsOrder schedules in arrival order (Figure 1 semantics): every key is
// 0, so the tie-break alone decides.
type fcfsOrder struct{ constEpoch }

func (fcfsOrder) Name() string                                    { return "fcfs" }
func (fcfsOrder) key(*fairshare.Tracker, int64, *job.Job) float64 { return 0 }

// fairshareOrder is the Sandia decaying-usage priority: lowest decayed usage
// first (paper §2.1), ties FCFS.
type fairshareOrder struct{ clockEpoch }

func (fairshareOrder) Name() string { return "fairshare" }
func (fairshareOrder) key(fs *fairshare.Tracker, _ int64, j *job.Job) float64 {
	return fs.Usage(j.User)
}

// sjfOrder is shortest-job-first by the user's wall-clock estimate — the
// size-based ordering whose fairness trade-offs Dell'Amico et al. ("On Fair
// Size-Based Scheduling") study. Ties FCFS.
type sjfOrder struct{ constEpoch }

func (sjfOrder) Name() string { return "sjf" }

// key is exact: estimates are bounded by job.MaxTime < 2^53.
func (sjfOrder) key(_ *fairshare.Tracker, _ int64, j *job.Job) float64 {
	return float64(j.Estimate)
}

// lxfOrder is largest-expansion-factor first: (wait + estimate)/estimate,
// descending — the slowdown-driven ordering of the heSRPT line of work
// (Berg et al.). A job's factor grows as it waits, so starvation
// self-corrects. Ties FCFS.
type lxfOrder struct{ clockEpoch }

func (lxfOrder) Name() string { return "lxf" }

// key is the negated expansion factor −(now − submit + est)/est (an
// estimate below 1 counts as 1). Correctly rounded division is monotone,
// and two distinct factors differ by at least 1/(est_a·est_b), so the key
// order is the exact order while (now − submit_a + est_a)·est_b < 2^52 for
// every queued pair; past that bound, factors closer than one ulp tie into
// FCFS (DESIGN.md §9).
func (lxfOrder) key(_ *fairshare.Tracker, now int64, j *job.Job) float64 {
	e := max(j.Estimate, 1)
	return -float64(now-j.Submit+e) / float64(e)
}

// widestOrder schedules the widest jobs (most nodes) first; narrowest the
// opposite. Width-based orders probe the packing/fairness trade-off the
// paper's per-width breakdowns (Figures 16-19) measure. Ties FCFS.
type widestOrder struct{ constEpoch }

func (widestOrder) Name() string { return "widest" }
func (widestOrder) key(_ *fairshare.Tracker, _ int64, j *job.Job) float64 {
	return -float64(j.Nodes)
}

type narrowestOrder struct{ constEpoch }

func (narrowestOrder) Name() string { return "narrowest" }
func (narrowestOrder) key(_ *fairshare.Tracker, _ int64, j *job.Job) float64 {
	return float64(j.Nodes)
}

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

// edfClass spaces the key's four classes (at-risk targeted, at-risk
// untargeted, targeted, untargeted) above every deadline. A deadline is a
// submit (at most job.MaxTime, or the clock for a preemption remainder)
// plus a wait target (at most job.MaxTime), so it stays below 2^42 while
// the clock is below 3·2^40 s (about 100,000 years).
const edfClass = 1 << 42

// key is (2·!atRisk + !targeted)·2^42 + deadline, with deadline 0 for
// untargeted jobs so they tie into arrival order. It stays below 2^44, so
// it is exact in a float64.
func (o *edfOrder) key(_ *fairshare.Tracker, _ int64, j *job.Job) float64 {
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
