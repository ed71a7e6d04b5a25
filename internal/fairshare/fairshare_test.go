package fairshare

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"fairsched/internal/job"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestAccrueChargesProcSeconds(t *testing.T) {
	tr := NewTracker(Config{DecayFactor: 0.5, DecayInterval: 86400}, 0)
	if err := tr.Accrue(100, []Usage{{User: 1, Nodes: 10}}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Usage(1); !almost(got, 1000) {
		t.Fatalf("usage = %v, want 1000", got)
	}
	if got := tr.Usage(2); got != 0 {
		t.Fatalf("untouched user has usage %v", got)
	}
}

func TestAccrueMergesStreamsOfSameUser(t *testing.T) {
	tr := NewTracker(DefaultConfig(), 0)
	if err := tr.Accrue(10, []Usage{{User: 1, Nodes: 4}, {User: 1, Nodes: 6}}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Usage(1); !almost(got, 100) {
		t.Fatalf("usage = %v, want 100", got)
	}
}

func TestDecayAtBoundary(t *testing.T) {
	tr := NewTracker(Config{DecayFactor: 0.5, DecayInterval: 100}, 0)
	if err := tr.Accrue(100, []Usage{{User: 1, Nodes: 1}}); err != nil {
		t.Fatal(err)
	}
	// At t=100 the boundary fires: 100 proc-sec decay to 50.
	if got := tr.Usage(1); !almost(got, 50) {
		t.Fatalf("usage after boundary = %v, want 50", got)
	}
}

func TestAccrueSplitsAtBoundaries(t *testing.T) {
	tr := NewTracker(Config{DecayFactor: 0.5, DecayInterval: 100}, 0)
	// 250 seconds at 1 node crosses two boundaries:
	// [0,100): 100, decays to 50; [100,200): +100 -> 150, decays to 75;
	// [200,250): +50 -> 125.
	if err := tr.Accrue(250, []Usage{{User: 1, Nodes: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Usage(1); !almost(got, 125) {
		t.Fatalf("usage = %v, want 125", got)
	}
}

func TestAccrueIdleStillDecays(t *testing.T) {
	tr := NewTracker(Config{DecayFactor: 0.5, DecayInterval: 100}, 0)
	tr.Charge(1, 1000)
	if err := tr.Accrue(200, nil); err != nil {
		t.Fatal(err)
	}
	if got := tr.Usage(1); !almost(got, 250) {
		t.Fatalf("usage = %v, want 250 after two decays", got)
	}
}

func TestAccrueRejectsTimeReversal(t *testing.T) {
	tr := NewTracker(DefaultConfig(), 0)
	if err := tr.Accrue(100, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Accrue(50, nil); err == nil {
		t.Fatal("time reversal accepted")
	}
}

func TestVanishingUsageIsDropped(t *testing.T) {
	tr := NewTracker(Config{DecayFactor: 0.5, DecayInterval: 1}, 0)
	tr.Charge(1, 1e-6)
	if err := tr.Accrue(100, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Users()); got != 0 {
		t.Fatalf("vanishing user retained: %d users", got)
	}
}

// TestLazyDecayBitIdenticalToEager: the lazy generation counter must
// reproduce an eager per-boundary sweep bit for bit — the settled replay
// multiplies once per boundary in the same order, never as a single
// factor^k power.
func TestLazyDecayBitIdenticalToEager(t *testing.T) {
	cfg := Config{DecayFactor: 0.75, DecayInterval: 100}
	tr := NewTracker(cfg, 0)
	// Eager shadow: apply the same charges and per-boundary multiplies.
	eager := map[int]float64{}
	charge := func(user int, v float64) { eager[user] += v }
	decayAll := func(n int) {
		for i := 0; i < n; i++ {
			for u := range eager {
				eager[u] *= cfg.DecayFactor
			}
		}
	}
	tr.Charge(1, 1234.5)
	tr.Charge(2, 17.25)
	charge(1, 1234.5)
	charge(2, 17.25)
	if err := tr.Accrue(350, []Usage{{User: 1, Nodes: 3}}); err != nil {
		t.Fatal(err)
	}
	// Eager replay of Accrue(350): [0,100) +300 for user 1, decay, twice
	// more, then [300,350) +150.
	charge(1, 300)
	decayAll(1)
	charge(1, 300)
	decayAll(1)
	charge(1, 300)
	decayAll(1)
	charge(1, 150)
	for _, u := range []int{1, 2} {
		if got := tr.Usage(u); got != eager[u] {
			t.Fatalf("user %d: lazy %v != eager %v (must be bit-identical)", u, got, eager[u])
		}
	}
	// Reads in any order settle consistently: re-reads are stable.
	if tr.Usage(2) != tr.Usage(2) {
		t.Fatal("settled value not stable")
	}
}

// TestAddRunningMatchesAccrue: the running table (AddRunning + Advance)
// must charge exactly like Accrue over the equivalent duplicated streams,
// and the table empties back into the ledger when the work stops.
func TestAddRunningMatchesAccrue(t *testing.T) {
	a := NewTracker(Config{DecayFactor: 0.5, DecayInterval: 100}, 0)
	b := NewTracker(Config{DecayFactor: 0.5, DecayInterval: 100}, 0)
	if err := a.Accrue(250, []Usage{{User: 1, Nodes: 2}, {User: 2, Nodes: 1}, {User: 1, Nodes: 3}}); err != nil {
		t.Fatal(err)
	}
	b.AddRunning(1, 2)
	b.AddRunning(2, 1)
	b.AddRunning(1, 3)
	if err := b.Advance(250); err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{1, 2} {
		if a.Usage(u) != b.Usage(u) {
			t.Fatalf("user %d: Accrue %v != AddRunning+Advance %v", u, a.Usage(u), b.Usage(u))
		}
	}
	b.AddRunning(1, -5)
	b.AddRunning(2, -1)
	if n := len(b.AppendRunning(nil)); n != 0 {
		t.Fatalf("running table holds %d users after every job stopped", n)
	}
	for _, u := range []int{1, 2} {
		if a.Usage(u) != b.Usage(u) {
			t.Fatalf("user %d: written-back usage %v, want %v", u, b.Usage(u), a.Usage(u))
		}
	}
	if err := b.Advance(100); err == nil {
		t.Fatal("time reversal accepted")
	}
}

func TestNextBoundaryAfter(t *testing.T) {
	tr := NewTracker(Config{DecayFactor: 0.5, DecayInterval: 100}, 50)
	cases := []struct{ ts, want int64 }{
		{50, 150}, {149, 150}, {150, 250}, {151, 250},
	}
	for _, tc := range cases {
		if got := tr.NextBoundaryAfter(tc.ts); got != tc.want {
			t.Errorf("NextBoundaryAfter(%d) = %d, want %d", tc.ts, got, tc.want)
		}
	}
}

// less is the fairshare queue order as a comparator over the ledger: lower
// decayed usage first, then earlier submission, then lower job id. It is
// the reference Compare over Usage keys is checked against.
func (t *Tracker) less(a, b *job.Job) bool {
	ua, _ := t.settled(a.User)
	ub, _ := t.settled(b.User)
	if ua != ub {
		return ua < ub
	}
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// TestNewTrackerFoldsPositiveEpoch: a positive epoch keeps its boundary
// lattice (epoch + k·interval) but folds into (-interval, 0], so the
// accrual frontier starts at or before a clock that starts at 0.
func TestNewTrackerFoldsPositiveEpoch(t *testing.T) {
	tr := NewTracker(Config{DecayFactor: 0.5, DecayInterval: 100}, 250)
	if err := tr.Advance(0); err != nil {
		t.Fatalf("Advance(0) after a positive epoch: %v", err)
	}
	if got := tr.NextBoundaryAfter(0); got != 50 {
		t.Fatalf("NextBoundaryAfter(0) = %d, want 50", got)
	}
}

func TestLessOrdersByUsageThenSubmitThenID(t *testing.T) {
	tr := NewTracker(DefaultConfig(), 0)
	tr.Charge(1, 100)
	tr.Charge(2, 50)
	a := &job.Job{ID: 1, User: 1, Submit: 0}
	b := &job.Job{ID: 2, User: 2, Submit: 100}
	if !tr.less(b, a) {
		t.Error("lower usage should rank first despite later submit")
	}
	c := &job.Job{ID: 3, User: 2, Submit: 50}
	if !tr.less(c, b) {
		t.Error("same usage: earlier submit should rank first")
	}
	d := &job.Job{ID: 4, User: 2, Submit: 50}
	if !tr.less(c, d) || tr.less(d, c) {
		t.Error("same usage and submit: lower id should rank first")
	}
}

func TestCompareSortIsDeterministic(t *testing.T) {
	tr := NewTracker(DefaultConfig(), 0)
	tr.Charge(1, 10)
	tr.Charge(2, 20)
	tr.Charge(3, 5)
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0},
		{ID: 2, User: 2, Submit: 0},
		{ID: 3, User: 3, Submit: 0},
		{ID: 4, User: 1, Submit: 5},
	}
	slices.SortFunc(jobs, func(a, b *job.Job) int {
		return Compare(tr.Usage(a.User), a, tr.Usage(b.User), b)
	})
	wantIDs := []job.ID{3, 1, 4, 2}
	for i, w := range wantIDs {
		if jobs[i].ID != w {
			t.Fatalf("order %v, want %v at %d", jobs[i].ID, w, i)
		}
	}
	for _, a := range jobs {
		for _, b := range jobs {
			c := Compare(tr.Usage(a.User), a, tr.Usage(b.User), b)
			if less := tr.less(a, b); less != (c < 0) || (a == b) != (c == 0) {
				t.Errorf("Compare(%d, %d) = %d disagrees with Less = %v", a.ID, b.ID, c, less)
			}
		}
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	tr := NewTracker(DefaultConfig(), 0)
	tr.Charge(7, 42)
	snap := tr.Snapshot()
	snap[7] = 999
	if got := tr.Usage(7); !almost(got, 42) {
		t.Fatalf("snapshot mutation leaked: %v", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	tr := NewTracker(Config{}, 0)
	tr.Charge(1, 100)
	if err := tr.Accrue(24*3600, nil); err != nil {
		t.Fatal(err)
	}
	if got := tr.Usage(1); !almost(got, 50) {
		t.Fatalf("default decay after 24h = %v, want 50", got)
	}
}

func TestQuickUsageNonNegativeAndMonotoneDecay(t *testing.T) {
	f := func(charges []uint16, steps uint8) bool {
		tr := NewTracker(Config{DecayFactor: 0.5, DecayInterval: 10}, 0)
		for i, c := range charges {
			tr.Charge(i%5, float64(c))
		}
		now := int64(0)
		for s := 0; s < int(steps%20); s++ {
			now += 7
			if err := tr.Accrue(now, []Usage{{User: 1, Nodes: 2}}); err != nil {
				return false
			}
			for _, u := range tr.Users() {
				if tr.Usage(u) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestConfigValidate: zero fields mean the defaults; a set factor must be
// a finite number in (0, 1] and the interval must not be negative.
func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{{}, DefaultConfig(), {DecayFactor: 1}, {DecayFactor: 1e-9, DecayInterval: 1}} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
	for _, c := range []Config{
		{DecayFactor: -0.5}, {DecayFactor: 2}, {DecayFactor: math.NaN()},
		{DecayFactor: math.Inf(1)}, {DecayFactor: math.Inf(-1)}, {DecayInterval: -5},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
	if err := CheckDecayFactor(0); err == nil {
		t.Error("CheckDecayFactor accepted an explicit 0")
	}
}

// TestLedgerEntryIs16Bytes: every user ever charged keeps one ledger
// entry, so at 10^6 users each extra 8 bytes is 8 MB of resident memory.
// Running users are marked in place (negative gen), not with a field.
func TestLedgerEntryIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(decayedUsage{}); got != 16 {
		t.Fatalf("ledger entry is %d bytes, want 16", got)
	}
}

// TestWarmAdvanceAllocatesNothing: accrual over a 1k-user running table,
// decay boundaries included, is a walk over the table.
func TestWarmAdvanceAllocatesNothing(t *testing.T) {
	tr := NewTracker(Config{DecayFactor: 0.5, DecayInterval: 100}, 0)
	for u := 0; u < 1000; u++ {
		tr.AddRunning(u*3, u%7+1)
	}
	now := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		now += 37
		if err := tr.Advance(now); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm Advance allocates %v times per call", allocs)
	}
}

// TestWarmStartStopAllocatesNothing: once the ledger pages and the table's
// capacity exist, starting and stopping jobs moves entries in place.
func TestWarmStartStopAllocatesNothing(t *testing.T) {
	tr := NewTracker(DefaultConfig(), 0)
	cycle := func() {
		for u := 0; u < 64; u++ {
			tr.AddRunning(u*11, 4)
		}
		if err := tr.Advance(tr.Now() + 60); err != nil {
			t.Fatal(err)
		}
		for u := 63; u >= 0; u -= 2 {
			tr.AddRunning(u*11, -4)
		}
		for u := 0; u < 64; u += 2 {
			tr.AddRunning(u*11, -4)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm start/stop cycle allocates %v times", allocs)
	}
}

// Snapshot returns a copy of the per-user settled usage: the map the
// differential tests compare against their reference ledger. The replay is
// read-only, so taking it does not settle the ledger in place.
func (t *Tracker) Snapshot() map[int]float64 {
	out := make(map[int]float64, t.usage.Len())
	t.usage.Range(func(u int, e decayedUsage) bool {
		if e.gen < 0 {
			e = t.run[^e.gen].decayedUsage
		}
		if v, ok := t.settledValue(e); ok {
			out[u] = v
		}
		return true
	})
	return out
}
