package fairshare

import (
	"fmt"
	"math/rand"
	"testing"
)

// refTracker is the pre-userdex reference implementation: the identical
// lazy-decay ledger on a plain Go map. The paged-index Tracker is a pure
// layout change, so every observable value must match it bit for bit
// (DESIGN.md §10, §15).
type refTracker struct {
	cfg   Config
	epoch int64
	now   int64
	usage map[int]decayedUsage
	gen   int64
}

func newRefTracker(cfg Config, epoch int64) *refTracker {
	return &refTracker{cfg: cfg.withDefaults(), epoch: epoch, now: epoch, usage: make(map[int]decayedUsage)}
}

func (t *refTracker) settled(user int) (float64, bool) {
	e, ok := t.usage[user]
	if !ok {
		return 0, false
	}
	v := e.v
	for g := e.gen; g < t.gen; g++ {
		v *= t.cfg.DecayFactor
		if v < 1e-9 {
			delete(t.usage, user)
			return 0, false
		}
	}
	t.usage[user] = decayedUsage{v: v, gen: t.gen}
	return v, true
}

func (t *refTracker) charge(user int, procSeconds float64) {
	v, _ := t.settled(user)
	t.usage[user] = decayedUsage{v: v + procSeconds, gen: t.gen}
}

func (t *refTracker) accrue(now int64, running []Usage) {
	perUser := make(map[int]int)
	for _, u := range running {
		perUser[u.User] += u.Nodes
	}
	for t.now < now {
		k := (t.now - t.epoch) / t.cfg.DecayInterval
		next := t.epoch + k*t.cfg.DecayInterval
		for next <= t.now {
			next += t.cfg.DecayInterval
		}
		end := now
		atBoundary := false
		if next <= now {
			end = next
			atBoundary = true
		}
		dt := float64(end - t.now)
		if dt > 0 {
			for user, n := range perUser {
				if n != 0 {
					t.charge(user, float64(n)*dt)
				}
			}
		}
		t.now = end
		if atBoundary {
			t.gen++
		}
	}
}

func (t *refTracker) snapshot() map[int]float64 {
	out := make(map[int]float64, len(t.usage))
	for u := range t.usage {
		if v, ok := t.settled(u); ok {
			out[u] = v
		}
	}
	return out
}

// opSource draws the choices of one differential run: a seeded rng for
// the table-driven test, the fuzzer's bytes for FuzzTrackerRunning.
type opSource interface{ Intn(n int) int }

// byteSource reads choices two bytes at a time from fuzz input; an
// exhausted input reads as 0.
type byteSource struct{ b []byte }

func (s *byteSource) Intn(n int) int {
	v := 0
	for k := 0; k < 2 && len(s.b) > 0; k++ {
		v = v<<8 | int(s.b[0])
		s.b = s.b[1:]
	}
	return v % n
}

// differential drives a Tracker and the map reference through ops random
// operations — charges, accruals, job starts and stops on the running
// table, advances, long idle jumps, reads, snapshots — and fails at the
// first observable disagreement. The reference has no running table: it
// accrues the test's own per-user running counts as plain streams.
type differential struct {
	t        testing.TB
	label    string
	src      opSource
	tr       *Tracker
	ref      *refTracker
	now      int64
	maxStep  int64
	userID   func() int
	running  map[int]int // user -> running nodes
	runUsers []int       // running users, in start order
}

func newDifferential(t testing.TB, label string, src opSource, cfg Config, epoch, maxStep int64, userID func() int) *differential {
	return &differential{
		t: t, label: label, src: src,
		tr: NewTracker(cfg, epoch), ref: newRefTracker(cfg, epoch),
		now: epoch, maxStep: maxStep, userID: userID,
		running: map[int]int{},
	}
}

// user returns a running user half the time (when any run), else a fresh
// draw, so reads and charges hit the table's markers.
func (d *differential) user() int {
	if len(d.runUsers) > 0 && d.src.Intn(2) == 0 {
		return d.runUsers[d.src.Intn(len(d.runUsers))]
	}
	return d.userID()
}

// streams renders the test's running counts as reference streams.
func (d *differential) streams(extra []Usage) []Usage {
	out := append([]Usage(nil), extra...)
	for _, u := range d.runUsers {
		out = append(out, Usage{User: u, Nodes: d.running[u]})
	}
	return out
}

func (d *differential) advance(now int64, extra []Usage) {
	var err error
	if extra == nil {
		err = d.tr.Advance(now)
	} else {
		err = d.tr.Accrue(now, extra)
	}
	if err != nil {
		d.t.Fatal(err)
	}
	d.ref.accrue(now, d.streams(extra))
	d.now = now
}

func (d *differential) setRunning(u, delta int) {
	d.tr.AddRunning(u, delta)
	n, was := d.running[u]
	switch {
	case n+delta == 0:
		delete(d.running, u)
		for i, r := range d.runUsers {
			if r == u {
				d.runUsers = append(d.runUsers[:i], d.runUsers[i+1:]...)
				break
			}
		}
	case !was:
		d.running[u] = delta
		d.runUsers = append(d.runUsers, u)
	default:
		d.running[u] = n + delta
	}
}

func (d *differential) step(op int) {
	interval := d.tr.cfg.DecayInterval
	switch d.src.Intn(10) {
	case 0: // direct charge, running users included
		u := d.user()
		ps := float64(d.src.Intn(100000)+1) / 3
		d.tr.Charge(u, ps)
		d.ref.charge(u, ps)
	case 1: // tiny charge: decays below 1e-9 after a handful of boundaries
		u := d.userID()
		ps := 1e-7 * float64(d.src.Intn(100)+1)
		d.tr.Charge(u, ps)
		d.ref.charge(u, ps)
	case 2: // accrue with repeated-user streams on top of the running table
		var extra []Usage
		for i := d.src.Intn(12); i > 0; i-- {
			extra = append(extra, Usage{User: d.userID(), Nodes: d.src.Intn(64) + 1})
		}
		d.advance(d.now+int64(d.src.Intn(int(d.maxStep)))+1, append(extra, Usage{User: d.userID(), Nodes: 1}))
	case 3: // job start
		d.setRunning(d.userID(), d.src.Intn(64)+1)
	case 4: // job stop: all of a user's nodes or part of them
		if len(d.runUsers) == 0 {
			return
		}
		u := d.runUsers[d.src.Intn(len(d.runUsers))]
		n := d.running[u]
		if n > 1 && d.src.Intn(2) == 0 {
			n = d.src.Intn(n-1) + 1
		}
		d.setRunning(u, -n)
	case 5, 6: // event-to-event advance
		d.advance(d.now+int64(d.src.Intn(int(d.maxStep))), nil)
	case 7: // long jump across several decay boundaries
		d.advance(d.now+int64(d.src.Intn(8)+1)*interval+int64(d.src.Intn(int(interval))), nil)
	case 8: // point read
		u := d.user()
		if got, want := d.tr.Usage(u), func() float64 { v, _ := d.ref.settled(u); return v }(); got != want {
			d.t.Fatalf("%s op %d: Usage(%d) = %v, reference %v", d.label, op, u, got, want)
		}
	case 9:
		d.compareAll(fmt.Sprintf("op %d", op))
	}
	d.checkTable(op)
}

// checkTable requires the running table to mirror the test's counts.
func (d *differential) checkTable(op int) {
	table := d.tr.AppendRunning(nil)
	if len(table) != len(d.running) {
		d.t.Fatalf("%s op %d: running table has %d users, want %d", d.label, op, len(table), len(d.running))
	}
	for _, e := range table {
		if d.running[e.User] != e.Nodes {
			d.t.Fatalf("%s op %d: running table has user %d at %d nodes, want %d", d.label, op, e.User, e.Nodes, d.running[e.User])
		}
	}
}

// compareAll requires bit-identical snapshots and the same Users list.
func (d *differential) compareAll(at string) {
	got, want := d.tr.Snapshot(), d.ref.snapshot()
	if len(got) != len(want) {
		d.t.Fatalf("%s %s: snapshot has %d users, reference %d", d.label, at, len(got), len(want))
	}
	for u, v := range want {
		if g, ok := got[u]; !ok || g != v {
			d.t.Fatalf("%s %s: snapshot[%d] = %v (present %v), reference %v", d.label, at, u, g, ok, v)
		}
	}
	users := d.tr.Users()
	if len(users) != len(want) {
		d.t.Fatalf("%s %s: Users() has %d entries, reference %d", d.label, at, len(users), len(want))
	}
	for i, u := range users {
		if _, ok := want[u]; !ok || (i > 0 && users[i-1] >= u) {
			d.t.Fatalf("%s %s: Users() = %v: %d absent from the reference or out of order", d.label, at, users, u)
		}
	}
}

// TestTrackerMatchesMapReference drives the paged-index Tracker, running
// table included, and the map-based reference through identical random op
// sequences — 30 seeds across three contention shapes, mirroring the
// scheduler cache suite — and requires bit-identical usage at every read
// and snapshot. "split" exercises the sparse fallback with user ids beyond
// the dense range and negative ids.
func TestTrackerMatchesMapReference(t *testing.T) {
	shapes := []struct {
		name     string
		users    int
		sparseID bool // mix in ids outside the dense page range
		maxStep  int64
	}{
		{"calm", 8, false, 4 * 3600},
		{"contended", 300, false, 30 * 60},
		{"split", 50, true, 12 * 3600},
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed*131 + int64(sh.users)))
			cfg := Config{DecayFactor: 0.5, DecayInterval: 24 * 3600}
			if seed%3 == 1 {
				cfg = Config{DecayFactor: 0.9, DecayInterval: 3600}
			}
			epoch := int64(0)
			if seed%2 == 1 {
				epoch = -rng.Int63n(cfg.DecayInterval)
			}
			userID := func() int {
				u := rng.Intn(sh.users)
				switch {
				case sh.sparseID && u%5 == 0:
					return 1<<27 + u // beyond DenseCap: sparse fallback
				case sh.sparseID && u%5 == 1:
					return -u - 1 // negative: sparse fallback
				}
				return u * 37
			}
			d := newDifferential(t, fmt.Sprintf("%s seed %d", sh.name, seed), rng, cfg, epoch, sh.maxStep, userID)
			for op := 0; op < 300; op++ {
				d.step(op)
			}
			d.compareAll("final")
			// Stopping every job writes the whole table back.
			for len(d.runUsers) > 0 {
				u := d.runUsers[0]
				d.setRunning(u, -d.running[u])
			}
			d.checkTable(-1)
			d.compareAll("after the last stop")
		}
	}
}

// FuzzTrackerRunning is TestTrackerMatchesMapReference over fuzzer-chosen
// op sequences: the first byte picks the config (a 100 s interval crosses
// boundaries every few ops), every later choice comes from the input.
func FuzzTrackerRunning(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3, 0, 5, 0, 40, 0, 6, 0, 90, 0, 8, 0, 0, 0, 4, 0, 0, 0, 9})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		random := make([]byte, 600)
		rng.Read(random)
		f.Add(random)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{b: data}
		cfgs := []Config{{DecayFactor: 0.5, DecayInterval: 100}, {DecayFactor: 0.9, DecayInterval: 3600}, DefaultConfig()}
		cfg := cfgs[src.Intn(len(cfgs))]
		userID := func() int {
			switch u := src.Intn(24); {
			case u >= 20:
				return 1<<26 + u // sparse fallback
			case u >= 16:
				return -u // sparse fallback
			default:
				return u
			}
		}
		d := newDifferential(t, "fuzz", src, cfg, -int64(src.Intn(int(cfg.DecayInterval))), 250, userID)
		for op := 0; len(src.b) > 0 && op < 1000; op++ {
			d.step(op)
		}
		d.compareAll("final")
	})
}
