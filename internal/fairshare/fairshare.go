// Package fairshare implements the Sandia "fairshare" queuing priority: a
// per-user historical sum of processor-seconds that decays on a regular
// basis (every 24 hours on CPlant). Users with lower decayed usage get
// higher queue priority, so users who have not recently used the machine run
// first.
package fairshare

import (
	"fmt"
	"sort"

	"fairsched/internal/job"
	"fairsched/internal/userdex"
)

// Config parameterizes the tracker. The paper fixes the decay interval at 24
// hours; the decay factor is not published, so it is configurable (default
// 0.5, the conventional half-life-per-day fairshare).
type Config struct {
	DecayFactor   float64 // usage multiplier applied every interval, in (0,1]
	DecayInterval int64   // seconds between decays; 0 means 24h
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{DecayFactor: 0.5, DecayInterval: 24 * 3600}
}

func (c Config) withDefaults() Config {
	if c.DecayInterval <= 0 {
		c.DecayInterval = 24 * 3600
	}
	if c.DecayFactor <= 0 || c.DecayFactor > 1 {
		c.DecayFactor = 0.5
	}
	return c
}

// EpochFor converts a trace's wall-clock origin into the trace-relative
// fairshare epoch: decay fires at fixed wall-clock instants (Unix times
// k·interval — midnight UTC for the 24h default), so a trace starting at
// unixStart sees its first boundary interval-(unixStart mod interval)
// seconds in, not interval seconds in. The returned epoch lies in
// (-interval, 0]; feed it to NewTracker (or sim.Config.FairshareEpoch) so
// boundaries land where the real scheduler's did. A zero or negative
// unixStart (origin unknown) yields 0, the seed behaviour.
func EpochFor(unixStart, interval int64) int64 {
	if interval <= 0 {
		interval = 24 * 3600
	}
	if unixStart <= 0 {
		return 0
	}
	return -(unixStart % interval)
}

// Usage is one running job's contribution stream: Nodes processor-seconds
// accrue per second of wall time for user User.
type Usage struct {
	User  int
	Nodes int
}

// Tracker accumulates decayed processor-seconds per user. The simulator
// calls Accrue for every interval between events with the set of running
// jobs during that interval; Accrue splits the interval at decay boundaries
// so usage earned before a boundary decays at it.
//
// Decay is applied lazily: a boundary crossing only bumps a generation
// counter, and each user's value is settled to the current generation on
// first read or charge (the per-boundary multiplications are replayed one
// at a time, so the floating-point results are bit-identical to an eager
// sweep — the measurement plane's equivalence bar, DESIGN.md §10). This
// removes the full-map decay sweep from the event loop's profile.
type Tracker struct {
	cfg   Config
	epoch int64 // decay boundaries are epoch + k*interval
	now   int64 // accrual frontier
	// usage is the per-user ledger on the paged user index: at population
	// scale (10^5..10^6 users) the dense pages replace a hash probe per
	// settle/charge with two array indexes, and iteration comes out in
	// ascending user order for free (DESIGN.md §15).
	usage userdex.Map[decayedUsage]
	gen   int64 // decay generation: boundaries crossed so far
	// perUser, touched and aggBuf are Accrue's reused aggregation scratch
	// (per-interval node counts): Accrue runs once per simulation event, and
	// allocating them anew each time dominated its profile. touched lists
	// the users present in perUser (first-appearance order), so resetting
	// the scratch is O(users running), never a page sweep.
	perUser userdex.Map[int]
	touched []int
	aggBuf  []Usage
}

// decayedUsage is one user's processor-seconds, settled up to decay
// generation gen.
type decayedUsage struct {
	v   float64
	gen int64
}

// NewTracker creates a tracker whose decay boundaries align to epoch.
func NewTracker(cfg Config, epoch int64) *Tracker {
	return &Tracker{
		cfg:   cfg.withDefaults(),
		epoch: epoch,
		now:   epoch,
	}
}

// Now returns the accrual frontier (the time up to which usage is settled).
func (t *Tracker) Now() int64 { return t.now }

// Usage returns user's decayed processor-seconds as of the accrual frontier.
func (t *Tracker) Usage(user int) float64 {
	v, _ := t.settled(user)
	return v
}

// settledValue replays e's pending per-boundary decays without touching the
// ledger. ok is false when the value vanishes — exactly when the eager sweep
// would have dropped it (the first boundary pushing it under the threshold).
func (t *Tracker) settledValue(e decayedUsage) (float64, bool) {
	v := e.v
	for g := e.gen; g < t.gen; g++ {
		v *= t.cfg.DecayFactor
		if v < 1e-9 {
			return 0, false
		}
	}
	return v, true
}

// settled returns user's usage settled to the current decay generation,
// replaying any pending per-boundary decays and writing the result back
// (vanishing entries are dropped to keep the index small).
func (t *Tracker) settled(user int) (float64, bool) {
	e, ok := t.usage.Get(user)
	if !ok {
		return 0, false
	}
	if e.gen == t.gen {
		return e.v, true
	}
	v, ok := t.settledValue(e)
	if !ok {
		t.usage.Delete(user)
		return 0, false
	}
	t.usage.Set(user, decayedUsage{v: v, gen: t.gen})
	return v, true
}

// charge settles user to the current generation and adds procSeconds.
func (t *Tracker) charge(user int, procSeconds float64) {
	v, _ := t.settled(user)
	t.usage.Set(user, decayedUsage{v: v + procSeconds, gen: t.gen})
}

// Users returns the ids of all users with recorded usage, sorted.
func (t *Tracker) Users() []int {
	keys := make([]int, 0, t.usage.Len())
	t.usage.Range(func(u int, _ decayedUsage) bool {
		keys = append(keys, u)
		return true
	})
	out := keys[:0]
	for _, u := range keys {
		if _, ok := t.settled(u); ok {
			out = append(out, u)
		}
	}
	sort.Ints(out)
	return out
}

// Accrue advances the frontier from its current position to now, charging
// each stream Nodes proc-seconds per second and applying the decay factor at
// every interval boundary crossed. It is an error to move time backwards.
// Streams may repeat a user; the counts are aggregated into a reused scratch
// map first (callers that already hold aggregated counts should use
// AccrueAggregated and skip that work).
func (t *Tracker) Accrue(now int64, running []Usage) error {
	var perUser []Usage
	if len(running) > 0 {
		for _, u := range running {
			if n, ok := t.perUser.Get(u.User); ok {
				t.perUser.Set(u.User, n+u.Nodes)
			} else {
				t.perUser.Set(u.User, u.Nodes)
				t.touched = append(t.touched, u.User)
			}
		}
		perUser = t.aggBuf[:0]
		for _, user := range t.touched {
			n, _ := t.perUser.Get(user)
			perUser = append(perUser, Usage{User: user, Nodes: n})
			t.perUser.Delete(user)
		}
		t.aggBuf = perUser
		t.touched = t.touched[:0]
	}
	return t.AccrueAggregated(now, perUser)
}

// AccrueAggregated is Accrue for pre-aggregated streams: each user appears
// at most once. The simulator maintains the aggregation incrementally across
// events (one update per start/completion), so the per-event rebuild of the
// per-user counts — which dominated Accrue's profile on deep runs —
// disappears from the hot path. Charging is per-user independent, so the
// slice order does not affect the resulting usage values.
func (t *Tracker) AccrueAggregated(now int64, perUser []Usage) error {
	if now < t.now {
		return fmt.Errorf("fairshare: time moved backwards: %d < %d", now, t.now)
	}
	for t.now < now {
		next := t.nextBoundary(t.now)
		end := now
		atBoundary := false
		if next <= now {
			end = next
			atBoundary = true
		}
		dt := float64(end - t.now)
		if dt > 0 {
			for _, u := range perUser {
				if u.Nodes != 0 {
					t.charge(u.User, float64(u.Nodes)*dt)
				}
			}
		}
		t.now = end
		if atBoundary {
			t.decay()
		}
	}
	return nil
}

// nextBoundary returns the first decay boundary strictly after ts.
func (t *Tracker) nextBoundary(ts int64) int64 {
	k := (ts - t.epoch) / t.cfg.DecayInterval
	b := t.epoch + k*t.cfg.DecayInterval
	for b <= ts {
		b += t.cfg.DecayInterval
	}
	return b
}

// decay crosses one boundary: O(1) — the per-user multiplications are
// replayed lazily by settled.
func (t *Tracker) decay() { t.gen++ }

// NextBoundaryAfter exposes the next decay boundary strictly after ts, so
// the simulator can schedule re-evaluation wake-ups at decay instants.
func (t *Tracker) NextBoundaryAfter(ts int64) int64 { return t.nextBoundary(ts) }

// Charge adds raw (undecayed) processor-seconds to a user immediately. Used
// by tests and by warm-start scenarios.
func (t *Tracker) Charge(user int, procSeconds float64) {
	if procSeconds != 0 {
		t.charge(user, procSeconds)
	}
}

// Less is the fairshare queue order: lower decayed usage first, then earlier
// submission, then lower job id. It is a strict weak ordering for distinct
// jobs.
func (t *Tracker) Less(a, b *job.Job) bool {
	ua, _ := t.settled(a.User)
	ub, _ := t.settled(b.User)
	return Compare(ua, a, ub, b) < 0
}

// Compare is the fairshare queue order over precomputed priority keys as a
// three-way comparison: the lower key first, then earlier submission, then
// lower job id. With each job's decayed usage as its key it is exactly
// Tracker.Less; callers that read every usage once per pass (the scheduling
// engines, the hybrid FST engine) compare through it instead of re-reading
// the ledger per comparison. Job ids are unique within a workload, so it
// never answers 0 for different jobs.
func Compare(ka float64, a *job.Job, kb float64, b *job.Job) int {
	switch {
	case ka != kb:
		if ka < kb {
			return -1
		}
		return 1
	case a.Submit != b.Submit:
		if a.Submit < b.Submit {
			return -1
		}
		return 1
	case a.ID != b.ID:
		if a.ID < b.ID {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// Snapshot returns a copy of the per-user usage map (for metric engines that
// must not observe later mutation).
func (t *Tracker) Snapshot() map[int]float64 {
	out := make(map[int]float64, t.usage.Len())
	for _, e := range t.AppendSnapshot(nil) {
		out[e.User] = e.Usage
	}
	return out
}

// UserUsage is one user's settled decayed usage, as rendered by
// AppendSnapshot.
type UserUsage struct {
	User  int
	Usage float64
}

// AppendSnapshot appends every user's settled usage to buf (reusing its
// capacity) in ascending user order and returns it: the reuse-buffer form
// of Snapshot for render paths that snapshot per cell. The replay is
// read-only — the ledger is not settled in place — so with enough capacity
// a call allocates nothing, whatever the population size.
func (t *Tracker) AppendSnapshot(buf []UserUsage) []UserUsage {
	buf = buf[:0]
	t.usage.Range(func(u int, e decayedUsage) bool {
		if v, ok := t.settledValue(e); ok {
			buf = append(buf, UserUsage{User: u, Usage: v})
		}
		return true
	})
	return buf
}
