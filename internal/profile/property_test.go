package profile

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestQuickOccupyReleaseInvariants drives a random sequence of feasible
// occupations and verifies structural invariants plus exact restoration
// after releasing everything in reverse.
func TestQuickOccupyReleaseInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 64
		p := New(0, size, size)
		type iv struct {
			from, to int64
			n        int
		}
		var placed []iv
		for i := 0; i < 40; i++ {
			from := rng.Int63n(1000)
			to := from + 1 + rng.Int63n(200)
			n := rng.Intn(size) + 1
			if err := p.Occupy(from, to, n); err != nil {
				continue // infeasible; profile must be unchanged
			}
			placed = append(placed, iv{from, to, n})
			if p.CheckInvariants() != nil {
				return false
			}
		}
		for i := len(placed) - 1; i >= 0; i-- {
			if err := p.Release(placed[i].from, placed[i].to, placed[i].n); err != nil {
				return false
			}
		}
		times, free := p.Breakpoints()
		return len(times) == 1 && free[0] == size && p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEarliestFitIsFeasibleAndMinimal verifies that the returned start
// really has capacity for the whole window, and that starting one second
// earlier would not (scanning from `after`).
func TestQuickEarliestFitIsFeasibleAndMinimal(t *testing.T) {
	feasible := func(p *Profile, s, dur int64, nodes int) bool {
		for t := s; t < s+dur; t++ {
			if p.FreeAt(t) < nodes {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		p := New(0, size, size)
		for i := 0; i < 12; i++ {
			from := rng.Int63n(60)
			to := from + 1 + rng.Int63n(30)
			n := rng.Intn(size) + 1
			_ = p.Occupy(from, to, n) // infeasible ones are skipped internally
		}
		after := rng.Int63n(40)
		dur := rng.Int63n(20) + 1
		nodes := rng.Intn(size) + 1
		s, ok := p.EarliestFit(after, dur, nodes)
		if !ok {
			return false // full capacity returns eventually; must fit
		}
		if s < after {
			return false
		}
		if !feasible(p, s, dur, nodes) {
			return false
		}
		// Minimality: every candidate start in [after, s) must fail.
		for c := after; c < s; c++ {
			if feasible(p, c, dur, nodes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOccupyAtEarliestFitSucceeds confirms the find-then-reserve pair
// used by every reservation-based scheduler never fails.
func TestQuickOccupyAtEarliestFitSucceeds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 32
		p := New(0, size, size)
		for i := 0; i < 30; i++ {
			dur := rng.Int63n(50) + 1
			nodes := rng.Intn(size) + 1
			after := rng.Int63n(100)
			s, ok := p.EarliestFit(after, dur, nodes)
			if !ok {
				return false
			}
			if err := p.Occupy(s, s+dur, nodes); err != nil {
				return false
			}
		}
		return p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEarliestFitBeforeAgrees pins EarliestFitBefore to its spec: it
// returns exactly EarliestFit's answer when that answer starts below the
// limit, and no fit otherwise.
func TestQuickEarliestFitBeforeAgrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 32
		p := New(0, size, size)
		for i := 0; i < 25; i++ {
			from := rng.Int63n(500)
			_ = p.Occupy(from, from+1+rng.Int63n(100), rng.Intn(size)+1)
		}
		for i := 0; i < 50; i++ {
			after := rng.Int63n(600)
			limit := after + rng.Int63n(200) - 20 // sometimes <= after
			dur := rng.Int63n(150) + 1
			nodes := rng.Intn(size) + 1
			s, ok := p.EarliestFit(after, dur, nodes)
			bs, bok := p.EarliestFitBefore(after, limit, dur, nodes)
			if ok && s < limit {
				if !bok || bs != s {
					return false
				}
			} else if bok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEarliestMoveMatchesReleaseRefit pins the read-only probe to the
// round trip it replaces: Release the rectangle, EarliestFit from `after`,
// keep the old start when the fit is not earlier or not below the probe's
// limit, Occupy. The probe (and a
// Release/Occupy pair only when it finds an earlier start) must give the
// same start and leave the same profile.
func TestQuickEarliestMoveMatchesReleaseRefit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 24
		base := New(0, size, size)
		for i := 0; i < 20; i++ {
			from := rng.Int63n(300)
			_ = base.Occupy(from, from+1+rng.Int63n(80), rng.Intn(size)+1)
		}
		base.TrimBefore(rng.Int63n(40))
		for i := 0; i < 30; i++ {
			res := base.Origin() + rng.Int63n(300)
			dur := rng.Int63n(100) + 1
			nodes := rng.Intn(size) + 1
			p := base.Clone()
			if p.Occupy(res, res+dur, nodes) != nil {
				continue // not a standing reservation
			}
			after := p.Origin() + rng.Int63n(res-p.Origin()+20) // sometimes past res
			limit := Horizon
			if rng.Intn(4) > 0 {
				limit = p.Origin() + rng.Int63n(400) // sometimes past res, sometimes before after
			}
			want := p.Clone()
			if want.Release(res, res+dur, nodes) != nil {
				return false
			}
			ws, ok := want.EarliestFit(after, dur, nodes)
			if !ok || ws > res || ws >= limit {
				ws = res
			}
			if want.Occupy(ws, ws+dur, nodes) != nil {
				return false
			}
			gs := res
			if s, ok := p.EarliestMove(after, limit, res, dur, nodes); ok {
				if p.Release(res, res+dur, nodes) != nil || p.Occupy(s, s+dur, nodes) != nil {
					return false
				}
				gs = s
			}
			wt, wf := want.Breakpoints()
			gt, gf := p.Breakpoints()
			if gs != ws || !slices.Equal(gt, wt) || !slices.Equal(gf, wf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickResetHoldsMatchesOccupy pins the sort-once build to its
// definition: a full-capacity profile, then one Occupy from the origin per
// hold. Holds come unsorted, often share a release time, and sometimes end
// at or before the origin or hold more nodes than the system has (both
// paths must then fail).
func TestQuickResetHoldsMatchesOccupy(t *testing.T) {
	p := New(0, 1, 1) // reused across cases, like the simulator's profile
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 32
		origin := rng.Int63n(1000)
		holds := make([]Hold, rng.Intn(14))
		for i := range holds {
			holds[i] = Hold{Until: origin + 1 + rng.Int63n(12), Nodes: rng.Intn(6)}
			if rng.Intn(40) == 0 {
				holds[i].Until = origin - rng.Int63n(2) // an empty interval
			}
		}
		want := New(origin, size, size)
		var wantErr error
		for _, h := range holds {
			if wantErr = want.Occupy(origin, h.Until, h.Nodes); wantErr != nil {
				break
			}
		}
		err := p.ResetHolds(origin, size, holds)
		if (err != nil) != (wantErr != nil) {
			return false
		}
		if err != nil {
			return true
		}
		wt, wf := want.Breakpoints()
		gt, gf := p.Breakpoints()
		return p.Size() == size && slices.Equal(gt, wt) && slices.Equal(gf, wf) && p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
