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
// 0.5, the conventional half-life-per-day fairshare). Zero fields mean "use
// the default"; Validate rejects everything else outside the documented
// ranges.
type Config struct {
	DecayFactor   float64 // usage multiplier applied every interval, in (0,1]; 0 means 0.5
	DecayInterval int64   // seconds between decays, >= 0; 0 means 24h
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{DecayFactor: 0.5, DecayInterval: 24 * 3600}
}

// Validate reports a config the tracker cannot honour: a set decay factor
// that fails CheckDecayFactor, or a negative decay interval. Entry points
// (the simulator, the multi-queue policy, the CLIs) call it, so a bad
// value fails loudly instead of running as the default.
func (c Config) Validate() error {
	if c.DecayFactor != 0 {
		if err := CheckDecayFactor(c.DecayFactor); err != nil {
			return err
		}
	}
	if c.DecayInterval < 0 {
		return fmt.Errorf("fairshare: decay interval %d is negative", c.DecayInterval)
	}
	return nil
}

// CheckDecayFactor rejects a decay factor that is not a finite number in
// (0, 1]: a NaN would poison every usage value. A CLI flag, where 0 is an
// explicit value rather than "unset", checks with it directly.
func CheckDecayFactor(f float64) error {
	if !(f > 0 && f <= 1) {
		return fmt.Errorf("fairshare: decay factor %v outside (0, 1]", f)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.DecayInterval == 0 {
		c.DecayInterval = 24 * 3600
	}
	if c.DecayFactor == 0 {
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
// registers each job's nodes with AddRunning while it runs and calls
// Advance for every interval between events; Advance splits the interval
// at decay boundaries so usage earned before a boundary decays at it.
//
// Decay is applied lazily: a boundary crossing only bumps a generation
// counter, and each idle user's value is settled to the current generation
// on first read or charge (the per-boundary multiplications are replayed
// one at a time, so the floating-point results are bit-identical to an
// eager sweep — the measurement plane's equivalence bar, DESIGN.md §10).
// This removes the full-map decay sweep from the event loop's profile;
// only the running users, whose values change at every event anyway, are
// settled at the boundary itself.
type Tracker struct {
	cfg   Config
	epoch int64 // decay boundaries are epoch + k*interval
	now   int64 // accrual frontier
	// usage is the per-user ledger on the paged user index: at population
	// scale (10^5..10^6 users) the dense pages replace a hash probe per
	// settle/charge with two array indexes, and iteration comes out in
	// ascending user order for free (DESIGN.md §15). A running user's
	// entry is a marker (negative gen) pointing into run.
	usage userdex.Map[decayedUsage]
	gen   int64 // decay generation: boundaries crossed so far
	// run is the running-user table: one entry per user with running
	// work, holding its node count and its usage inline, always settled
	// to the current generation, so an accrual step walks these
	// contiguous entries instead of looking each running user up in the
	// ledger.
	run []runningUser
}

// decayedUsage is one user's processor-seconds, settled up to decay
// generation gen. In the ledger a negative gen marks a running user whose
// value lives in run[^gen]; the marker's v mirrors that value, so Usage
// answers from the ledger alone. In the table, gen noValue (with v 0)
// means the user has no recorded usage (never charged, or decayed away
// while running).
type decayedUsage struct {
	v   float64
	gen int64
}

const noValue = -1

// runningUser is one running-table entry.
type runningUser struct {
	decayedUsage
	user  int
	nodes int
	// marker is the user's ledger entry, written through on every change
	// of the value; nil for an id outside the ledger's paged range, whose
	// marker is re-Set instead.
	marker *decayedUsage
}

// NewTracker creates a tracker whose decay boundaries align to epoch. It
// panics if cfg fails Validate; the entry points validate first.
func NewTracker(cfg Config, epoch int64) *Tracker {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
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
	// The engines and the hybrid FST read every queued job's usage on
	// every pass. A settled idle entry, a running user's marker (which
	// mirrors the table) and an absent user's zero entry all answer with
	// the one ledger load; only a pending decay replay takes the slow path.
	// An idle entry's gen is at most t.gen and a marker's is negative, so
	// one unsigned compare tells both answering cases from a replay:
	// queues mix running and idle users at random, and a branch on the
	// marker itself would mispredict.
	e, ok := t.usage.Get(user)
	if uint64(e.gen) >= uint64(t.gen) || !ok {
		return e.v
	}
	v, _ := t.settled(user)
	return v
}

// settledValue replays e's pending per-boundary decays without touching the
// ledger. ok is false when the value vanishes — exactly when the eager sweep
// would have dropped it (the first boundary pushing it under the threshold)
// — or when e holds no value.
func (t *Tracker) settledValue(e decayedUsage) (float64, bool) {
	if e.gen < 0 {
		return 0, false
	}
	v := e.v
	for g := e.gen; g < t.gen; g++ {
		v *= t.cfg.DecayFactor
		if v < 1e-9 {
			return 0, false
		}
	}
	return v, true
}

// settle brings e to the current decay generation in place; a vanished
// value becomes noValue.
func (t *Tracker) settle(e *decayedUsage) (float64, bool) {
	if e.gen == t.gen {
		return e.v, true
	}
	v, ok := t.settledValue(*e)
	if !ok {
		*e = decayedUsage{gen: noValue}
		return 0, false
	}
	*e = decayedUsage{v: v, gen: t.gen}
	return v, true
}

// settled returns user's usage settled to the current decay generation,
// replaying any pending per-boundary decays and writing the result back
// (vanishing ledger entries are dropped to keep the index small).
func (t *Tracker) settled(user int) (float64, bool) {
	e, ok := t.usage.Get(user)
	if !ok {
		return 0, false
	}
	if e.gen < 0 {
		r := t.run[^e.gen]
		return r.v, r.gen != noValue
	}
	if e.gen == t.gen {
		return e.v, true
	}
	v, ok := t.settle(&e)
	if !ok {
		t.usage.Delete(user)
		return 0, false
	}
	t.usage.Set(user, e)
	return v, true
}

// charge settles user to the current generation and adds procSeconds,
// through the table for a running user.
func (t *Tracker) charge(user int, procSeconds float64) {
	if e, _ := t.usage.Get(user); e.gen < 0 {
		i := int(^e.gen)
		t.run[i].decayedUsage = decayedUsage{v: t.run[i].v + procSeconds, gen: t.gen}
		t.mirror(i)
		return
	}
	v, _ := t.settled(user)
	t.usage.Set(user, decayedUsage{v: v + procSeconds, gen: t.gen})
}

// mirror writes run[i]'s value through to the user's ledger marker.
func (t *Tracker) mirror(i int) {
	if r := &t.run[i]; r.marker != nil {
		r.marker.v = r.v
		return
	}
	t.setMarker(i)
}

// setMarker points run[i]'s user's ledger entry at slot i.
func (t *Tracker) setMarker(i int) {
	t.usage.Set(t.run[i].user, decayedUsage{v: t.run[i].v, gen: ^int64(i)})
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

// AddRunning adds delta nodes to user's running work: a job start adds
// its nodes, its completion or preemption subtracts them. The first
// running job moves the user's settled ledger value into the running
// table; when the count returns to zero the value is written back (or
// deleted, if it vanished while the user ran).
func (t *Tracker) AddRunning(user, delta int) {
	if delta == 0 {
		return
	}
	if e, _ := t.usage.Get(user); e.gen < 0 {
		i := int(^e.gen)
		if t.run[i].nodes += delta; t.run[i].nodes == 0 {
			t.stopRunning(i)
		}
		return
	}
	e := decayedUsage{gen: noValue}
	if v, ok := t.settled(user); ok {
		e = decayedUsage{v: v, gen: t.gen}
	}
	i := len(t.run)
	t.run = append(t.run, runningUser{decayedUsage: e, user: user, nodes: delta})
	t.setMarker(i)
	t.run[i].marker = t.usage.Ptr(user)
}

// stopRunning writes run[i]'s value back to the ledger and removes the
// entry, moving the last entry into its slot.
func (t *Tracker) stopRunning(i int) {
	r := t.run[i]
	if r.gen == noValue {
		t.usage.Delete(r.user)
	} else {
		t.usage.Set(r.user, r.decayedUsage)
	}
	last := len(t.run) - 1
	if i != last {
		t.run[i] = t.run[last]
		t.setMarker(i)
	}
	t.run[last] = runningUser{}
	t.run = t.run[:last]
}

// AppendRunning appends the running table's (user, nodes) pairs to buf,
// in no particular order, and returns it.
func (t *Tracker) AppendRunning(buf []Usage) []Usage {
	for _, r := range t.run {
		buf = append(buf, Usage{User: r.user, Nodes: r.nodes})
	}
	return buf
}

// Advance moves the frontier from its current position to now, charging
// every running user nodes proc-seconds per second and applying the decay
// factor at every interval boundary crossed. It is an error to move time
// backwards.
func (t *Tracker) Advance(now int64) error {
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
		if dt := float64(end - t.now); dt > 0 {
			// The table is settled, and a user without a value holds v 0:
			// the step is the eager sweep's v + nodes·dt.
			for i := range t.run {
				r := &t.run[i]
				r.decayedUsage = decayedUsage{v: r.v + float64(r.nodes)*dt, gen: t.gen}
				if r.marker != nil { // mirror, inlined
					r.marker.v = r.v
				} else {
					t.setMarker(i)
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

// Accrue is Advance with running charged on top of the running table for
// this one interval: each stream adds Nodes proc-seconds per second for
// User, and streams may repeat a user.
func (t *Tracker) Accrue(now int64, running []Usage) error {
	for _, u := range running {
		t.AddRunning(u.User, u.Nodes)
	}
	err := t.Advance(now)
	for _, u := range running {
		t.AddRunning(u.User, -u.Nodes)
	}
	return err
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

// decay crosses one boundary. Idle users pay nothing here — settled
// replays their multiplications lazily — while the running table settles
// now, one multiply and vanishing test per user, keeping the mirrors
// current.
func (t *Tracker) decay() {
	t.gen++
	for i := range t.run {
		t.settle(&t.run[i].decayedUsage)
		t.mirror(i)
	}
}

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
		if e.gen < 0 {
			e = t.run[^e.gen].decayedUsage
		}
		if v, ok := t.settledValue(e); ok {
			buf = append(buf, UserUsage{User: u, Usage: v})
		}
		return true
	})
	return buf
}
