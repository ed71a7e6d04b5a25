package profile

import (
	"testing"
)

func TestNewFullCapacity(t *testing.T) {
	p := New(0, 100, 100)
	if p.FreeAt(0) != 100 || p.FreeAt(1<<40) != 100 {
		t.Fatal("fresh profile should be full everywhere")
	}
	if p.SteadyFree() != 100 {
		t.Fatal("steady capacity wrong")
	}
}

func TestOccupyAndFreeAt(t *testing.T) {
	p := New(0, 100, 100)
	if err := p.Occupy(10, 20, 30); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    int64
		want int
	}{
		{0, 100}, {9, 100}, {10, 70}, {15, 70}, {19, 70}, {20, 100}, {100, 100},
	}
	for _, tc := range cases {
		if got := p.FreeAt(tc.t); got != tc.want {
			t.Errorf("FreeAt(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOccupyOverlapping(t *testing.T) {
	p := New(0, 10, 10)
	if err := p.Occupy(0, 10, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.Occupy(5, 15, 4); err != nil {
		t.Fatal(err)
	}
	if got := p.FreeAt(7); got != 2 {
		t.Fatalf("FreeAt(7) = %d, want 2", got)
	}
	if got := p.FreeAt(12); got != 6 {
		t.Fatalf("FreeAt(12) = %d, want 6", got)
	}
}

func TestOccupyRejectsOverflow(t *testing.T) {
	p := New(0, 10, 10)
	if err := p.Occupy(0, 10, 8); err != nil {
		t.Fatal(err)
	}
	if err := p.Occupy(5, 6, 3); err == nil {
		t.Fatal("overcommit accepted")
	}
	// The failed occupy must not have modified anything.
	if got := p.FreeAt(5); got != 2 {
		t.Fatalf("failed occupy mutated profile: FreeAt(5) = %d", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOccupyRejectsBadIntervals(t *testing.T) {
	p := New(100, 10, 10)
	if err := p.Occupy(50, 60, 1); err == nil {
		t.Error("interval before origin accepted")
	}
	if err := p.Occupy(200, 200, 1); err == nil {
		t.Error("empty interval accepted")
	}
	if err := p.Occupy(300, 200, 1); err == nil {
		t.Error("inverted interval accepted")
	}
}

func TestReleaseRestores(t *testing.T) {
	p := New(0, 10, 10)
	if err := p.Occupy(10, 20, 6); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(10, 20, 6); err != nil {
		t.Fatal(err)
	}
	times, free := p.Breakpoints()
	if len(times) != 1 || free[0] != 10 {
		t.Fatalf("release did not coalesce back: times=%v free=%v", times, free)
	}
}

func TestReleaseRejectsExceedingSize(t *testing.T) {
	p := New(0, 10, 10)
	if err := p.Release(5, 10, 1); err == nil {
		t.Fatal("release beyond system size accepted")
	}
}

func TestEarliestFitImmediate(t *testing.T) {
	p := New(0, 10, 10)
	s, ok := p.EarliestFit(0, 100, 10)
	if !ok || s != 0 {
		t.Fatalf("EarliestFit = %d,%v want 0,true", s, ok)
	}
}

func TestEarliestFitAfterRelease(t *testing.T) {
	p := New(0, 10, 10)
	if err := p.Occupy(0, 50, 8); err != nil {
		t.Fatal(err)
	}
	// 5 nodes for 10s: only 2 free until t=50.
	s, ok := p.EarliestFit(0, 10, 5)
	if !ok || s != 50 {
		t.Fatalf("EarliestFit = %d,%v want 50,true", s, ok)
	}
}

func TestEarliestFitUsesHole(t *testing.T) {
	p := New(0, 10, 10)
	if err := p.Occupy(0, 10, 8); err != nil {
		t.Fatal(err)
	}
	if err := p.Occupy(30, 60, 8); err != nil {
		t.Fatal(err)
	}
	// A 5-node 20s job fits exactly in the [10,30) hole.
	s, ok := p.EarliestFit(0, 20, 5)
	if !ok || s != 10 {
		t.Fatalf("EarliestFit = %d,%v want 10,true", s, ok)
	}
	// A 5-node 25s job does not fit the hole; it must wait until t=60.
	s, ok = p.EarliestFit(0, 25, 5)
	if !ok || s != 60 {
		t.Fatalf("EarliestFit = %d,%v want 60,true", s, ok)
	}
}

func TestEarliestFitRespectsAfter(t *testing.T) {
	p := New(0, 10, 10)
	s, ok := p.EarliestFit(25, 5, 3)
	if !ok || s != 25 {
		t.Fatalf("EarliestFit = %d,%v want 25,true", s, ok)
	}
}

func TestEarliestFitTooWide(t *testing.T) {
	p := New(0, 10, 10)
	if _, ok := p.EarliestFit(0, 5, 11); ok {
		t.Fatal("fit wider than the system accepted")
	}
}

func TestEarliestFitZeroDuration(t *testing.T) {
	p := New(0, 10, 10)
	s, ok := p.EarliestFit(5, 0, 3)
	if !ok || s != 5 {
		t.Fatalf("zero duration fit = %d,%v", s, ok)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := New(0, 10, 10)
	if err := p.Occupy(0, 10, 5); err != nil {
		t.Fatal(err)
	}
	q := p.Clone()
	if err := q.Occupy(0, 10, 5); err != nil {
		t.Fatal(err)
	}
	if p.FreeAt(5) != 5 {
		t.Fatal("clone mutation leaked into original")
	}
	if q.FreeAt(5) != 0 {
		t.Fatal("clone did not record its own occupation")
	}
}

func TestCoalesceMergesAdjacentEqualCapacity(t *testing.T) {
	p := New(0, 10, 10)
	if err := p.Occupy(10, 20, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Occupy(20, 30, 3); err != nil {
		t.Fatal(err)
	}
	times, _ := p.Breakpoints()
	// Expect breakpoints at 0, 10, 30 only (20 coalesced away).
	if len(times) != 3 {
		t.Fatalf("breakpoints = %v, want 3 entries", times)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResetReusesBackingArray(t *testing.T) {
	p := New(0, 10, 10)
	if err := p.Occupy(5, 20, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.ResetHolds(100, 16, []Hold{{Until: Horizon, Nodes: 8}}); err != nil {
		t.Fatal(err)
	}
	if p.Size() != 16 || p.Origin() != 100 {
		t.Fatalf("reset profile: size=%d origin=%d", p.Size(), p.Origin())
	}
	if got := p.FreeAt(100); got != 8 {
		t.Fatalf("free at origin = %d, want 8", got)
	}
	if got := p.SteadyFree(); got != 16 {
		t.Fatalf("steady free = %d, want 16 (capacity returns to size)", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Reset to full capacity drops the horizon breakpoint.
	if err := p.ResetHolds(0, 12, nil); err != nil {
		t.Fatal(err)
	}
	if times, _ := p.Breakpoints(); len(times) != 1 {
		t.Fatalf("full-capacity reset kept %d breakpoints", len(times))
	}
}

func TestTrimBeforeShedsDeadHistory(t *testing.T) {
	p := New(0, 100, 100)
	// Lay down enough disjoint past rectangles to exceed the compaction
	// slack, then trim at a later instant.
	for i := int64(0); i < 50; i++ {
		if err := p.Occupy(i*10, i*10+5, int(i%7)+1); err != nil {
			t.Fatal(err)
		}
	}
	trimAt := int64(497)
	wantAt := map[int64]int{trimAt: p.FreeAt(trimAt), 1000: p.FreeAt(1000), 505: p.FreeAt(505)}
	before := len(p.bps)
	p.TrimBefore(trimAt)
	if len(p.bps) >= before {
		t.Fatalf("trim kept %d of %d breakpoints", len(p.bps), before)
	}
	if p.Origin() != trimAt {
		t.Fatalf("origin = %d, want %d", p.Origin(), trimAt)
	}
	for at, want := range wantAt {
		if got := p.FreeAt(at); got != want {
			t.Fatalf("FreeAt(%d) = %d after trim, want %d", at, got, want)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Mutations at and after the new origin still work.
	if err := p.Occupy(trimAt, trimAt+10, 1); err != nil {
		t.Fatal(err)
	}
}

func TestTrimBeforeSmallHistoryIsNoOp(t *testing.T) {
	p := New(0, 10, 10)
	if err := p.Occupy(5, 15, 3); err != nil {
		t.Fatal(err)
	}
	before := append([]breakpoint(nil), p.bps...)
	p.TrimBefore(100) // only a couple of dead breakpoints: below the slack
	if len(p.bps) != len(before) {
		t.Fatalf("no-op trim changed the timeline: %v -> %v", before, p.bps)
	}
}

func TestCopyFromMatchesClone(t *testing.T) {
	src := New(0, 32, 32)
	for _, iv := range []struct {
		from, to int64
		n        int
	}{{0, 100, 8}, {50, 200, 4}, {150, 400, 16}} {
		if err := src.Occupy(iv.from, iv.to, iv.n); err != nil {
			t.Fatal(err)
		}
	}
	dst := New(0, 1, 1) // arbitrary prior state; CopyFrom must replace it
	dst.CopyFrom(src)
	st, sf := src.Breakpoints()
	dt, df := dst.Breakpoints()
	if len(st) != len(dt) {
		t.Fatalf("breakpoint counts differ: %d vs %d", len(st), len(dt))
	}
	for i := range st {
		if st[i] != dt[i] || sf[i] != df[i] {
			t.Fatalf("breakpoint %d differs: (%d,%d) vs (%d,%d)", i, st[i], sf[i], dt[i], df[i])
		}
	}
	// The copy is independent: mutating it leaves the source untouched.
	if err := dst.Occupy(0, 50, 20); err != nil {
		t.Fatal(err)
	}
	if src.FreeAt(0) != 24 {
		t.Fatalf("source mutated through copy: free at 0 = %d", src.FreeAt(0))
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEarliestFitBefore(t *testing.T) {
	p := New(0, 10, 10)
	// Occupy [0,100) fully except a 4-node hole on [20,40).
	if err := p.Occupy(0, 100, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(20, 40, 4); err != nil {
		t.Fatal(err)
	}

	// A 4x10 rectangle fits at 20; the bound at 40 admits it, a bound at 20
	// excludes it.
	if s, ok := p.EarliestFitBefore(0, 40, 10, 4); !ok || s != 20 {
		t.Fatalf("got (%d,%v), want (20,true)", s, ok)
	}
	if _, ok := p.EarliestFitBefore(0, 20, 10, 4); ok {
		t.Fatal("limit 20 must exclude the start at 20")
	}
	// The fitted rectangle may extend past the limit: a 4x30 job starting at
	// 20 runs to 50, beyond limit 21 — still admitted (only the start is
	// bounded) if capacity holds, which it does not here (hole ends at 40).
	if _, ok := p.EarliestFitBefore(0, 21, 30, 4); ok {
		t.Fatal("4x30 does not fit at 20 (hole ends at 40)")
	}
	if s, ok := p.EarliestFitBefore(0, 21, 20, 4); !ok || s != 20 {
		t.Fatalf("4x20 spanning past the limit: got (%d,%v), want (20,true)", s, ok)
	}
	// Too wide for the hole: the first fit is at 100, past any bound below.
	if _, ok := p.EarliestFitBefore(0, 99, 10, 5); ok {
		t.Fatal("5 nodes never free before 100")
	}
	// Degenerate bounds.
	if _, ok := p.EarliestFitBefore(50, 50, 1, 1); ok {
		t.Fatal("empty window [50,50) admitted a fit")
	}
	if _, ok := p.EarliestFitBefore(0, 5, 1, 11); ok {
		t.Fatal("wider than the system admitted a fit")
	}
}

// Size returns the system size.
func (p *Profile) Size() int { return p.size }
