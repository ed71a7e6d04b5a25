// Package profile implements the capacity-over-time timeline ("2D chart" in
// the paper's terminology) that backs every reservation-based scheduler:
// conservative backfilling, dynamic-reservation conservative backfilling and
// the aggressive head-of-queue reservation of the starvation queue.
//
// A Profile tracks the number of free nodes as a step function of time via a
// sorted slice of breakpoints. Occupying an interval subtracts capacity;
// releasing adds it back. EarliestFit finds the first start time at which a
// job's rectangle fits entirely, which is exactly the "hole" search of
// backfilling.
package profile

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Horizon is the pseudo-infinite end of time for open-ended queries. All
// simulation times are far below it.
const Horizon = int64(1) << 60

type breakpoint struct {
	t    int64 // free applies on [t, next.t)
	free int
}

// Profile is a free-capacity step function over [origin, +inf). The zero
// value is not usable; construct with New, or fill it with ResetHolds or
// CopyFrom.
type Profile struct {
	size int // system size; free capacity beyond the last breakpoint
	bps  []breakpoint
}

// New creates a profile with `free` nodes available from origin onwards out
// of a system of `size` nodes. Typically free == size and running jobs are
// then added with Occupy.
func New(origin int64, free, size int) *Profile {
	if free > size {
		free = size
	}
	p := &Profile{size: size}
	p.bps = append(p.bps, breakpoint{t: origin, free: free})
	if free != size {
		// Unless told otherwise, capacity returns to full at the horizon;
		// callers model running jobs explicitly instead of relying on this.
		p.bps = append(p.bps, breakpoint{t: Horizon, free: size})
	}
	return p
}

// Hold is one running job's claim on the machine: Nodes stay busy until
// Until, the job's promised release time.
type Hold struct {
	Until int64
	Nodes int
}

// ResetHolds reinitializes the profile in place to `size` nodes from origin
// onwards, less every hold's nodes on [origin, hold.Until), reusing the
// breakpoint backing array. It sorts holds in place by Until (holds already
// in that order are left as they are) and writes the breakpoints in one
// pass: free capacity only rises after origin, and holds releasing at the
// same instant share one breakpoint. The result equals
// New(origin, size, size) followed by Occupy(origin, h.Until, h.Nodes)
// per hold, at O(R log R) for R holds instead of O(R²), and it is the
// allocation-free equivalent of New for hot paths that rebuild a profile
// every scheduling event. On error (a hold ending at or before origin,
// negative nodes, or more nodes held than the system has) the profile is
// left unchanged.
func (p *Profile) ResetHolds(origin int64, size int, holds []Hold) error {
	byUntil := func(a, b Hold) int { return cmp.Compare(a.Until, b.Until) }
	if !slices.IsSortedFunc(holds, byUntil) {
		slices.SortFunc(holds, byUntil)
	}
	held := 0
	for _, h := range holds {
		if h.Until <= origin {
			return fmt.Errorf("profile: empty interval [%d,%d)", origin, h.Until)
		}
		if h.Nodes < 0 {
			return fmt.Errorf("profile: negative hold of %d nodes", h.Nodes)
		}
		held += h.Nodes
	}
	if held > size {
		return fmt.Errorf("profile: capacity would go negative (%d) at t=%d", size-held, origin)
	}
	p.size = size
	free := size - held
	p.bps = append(p.bps[:0], breakpoint{t: origin, free: free})
	for _, h := range holds {
		if h.Nodes == 0 {
			continue
		}
		free += h.Nodes
		if last := &p.bps[len(p.bps)-1]; last.t == h.Until {
			last.free = free
		} else {
			p.bps = append(p.bps, breakpoint{t: h.Until, free: free})
		}
	}
	return nil
}

// CopyFrom makes p a deep copy of src, reusing p's breakpoint backing array.
// The allocation-free equivalent of src.Clone() for reused scratch profiles.
func (p *Profile) CopyFrom(src *Profile) {
	p.size = src.size
	p.bps = append(p.bps[:0], src.bps...)
}

// trimSlack is how many dead breakpoints TrimBefore lets accumulate before
// it compacts them away.
const trimSlack = 32

// TrimBefore advances the profile's origin to t, dropping the breakpoints
// strictly before the segment containing t. Capacity at every time >= t is
// unchanged; only queries at or after the new origin remain meaningful. A
// long-lived profile (the conservative engine's revalidation cache) calls
// this to shed dead history, which would otherwise grow every structural
// mutation's insertion cost without bound. Times before the current origin
// are a no-op, and the compaction only runs once enough dead breakpoints
// accumulate to pay for the copy.
func (p *Profile) TrimBefore(t int64) {
	i := sort.Search(len(p.bps), func(i int) bool { return p.bps[i].t > t })
	// The segment containing t starts at i-1; everything before it is dead.
	if i-1 < trimSlack {
		return
	}
	kept := copy(p.bps, p.bps[i-1:])
	p.bps = p.bps[:kept]
	if p.bps[0].t < t {
		p.bps[0].t = t
	}
}

// Origin returns the first breakpoint time.
func (p *Profile) Origin() int64 { return p.bps[0].t }

// Clone returns a deep copy.
func (p *Profile) Clone() *Profile {
	q := &Profile{size: p.size}
	q.bps = append([]breakpoint(nil), p.bps...)
	return q
}

// FreeAt returns the free capacity at time t. Times before the origin report
// the origin's capacity.
func (p *Profile) FreeAt(t int64) int {
	i := sort.Search(len(p.bps), func(i int) bool { return p.bps[i].t > t })
	if i == 0 {
		return p.bps[0].free
	}
	return p.bps[i-1].free
}

// ensureBreak makes sure a breakpoint exists exactly at t and returns its
// index. t must be >= origin.
func (p *Profile) ensureBreak(t int64) int {
	i := sort.Search(len(p.bps), func(i int) bool { return p.bps[i].t >= t })
	if i < len(p.bps) && p.bps[i].t == t {
		return i
	}
	// Insert a breakpoint carrying the capacity of the segment containing t.
	var free int
	if i == 0 {
		free = p.bps[0].free
	} else {
		free = p.bps[i-1].free
	}
	p.bps = append(p.bps, breakpoint{})
	copy(p.bps[i+1:], p.bps[i:])
	p.bps[i] = breakpoint{t: t, free: free}
	return i
}

// Occupy subtracts nodes of capacity on [from, to). It returns an error if
// the interval is empty/inverted, starts before the origin, or would drive
// capacity negative anywhere (callers reserve only into verified holes).
func (p *Profile) Occupy(from, to int64, nodes int) error {
	return p.adjust(from, to, -nodes)
}

// Release adds nodes of capacity back on [from, to); the inverse of Occupy.
// Capacity may not exceed the system size anywhere.
func (p *Profile) Release(from, to int64, nodes int) error {
	return p.adjust(from, to, +nodes)
}

// adjust adds delta to the capacity on [from, to). The profile is coalesced
// before and after, and the work stays local to the interval: the interior
// breakpoints of [from, to) all shift by the same delta, so they stay
// pairwise distinct, and only the breakpoints at from and to can come to
// equal their left neighbours.
func (p *Profile) adjust(from, to int64, delta int) error {
	if to <= from {
		return fmt.Errorf("profile: empty interval [%d,%d)", from, to)
	}
	if from < p.Origin() {
		return fmt.Errorf("profile: interval start %d before origin %d", from, p.Origin())
	}
	if delta == 0 {
		return nil
	}
	i := p.ensureBreak(from)
	j := p.ensureBreak(to)
	for k := i; k < j; k++ {
		nf := p.bps[k].free + delta
		if nf < 0 || nf > p.size {
			at := p.bps[k].t
			// A breakpoint ensureBreak inserted carries its left
			// neighbour's capacity, so merging the edges drops exactly the
			// inserted ones: the profile is structurally unchanged after a
			// rejected adjustment.
			p.mergeEdges(i, j)
			if nf < 0 {
				return fmt.Errorf("profile: capacity would go negative (%d) at t=%d", nf, at)
			}
			return fmt.Errorf("profile: capacity %d would exceed size %d at t=%d", nf, p.size, at)
		}
	}
	for k := i; k < j; k++ {
		p.bps[k].free += delta
	}
	p.mergeEdges(i, j)
	return nil
}

// mergeEdges drops the breakpoints at indexes j and then i (i < j) where
// each carries its left neighbour's capacity. The right edge goes first so
// that index i stays valid.
func (p *Profile) mergeEdges(i, j int) {
	for _, k := range [2]int{j, i} {
		if k > 0 && p.bps[k].free == p.bps[k-1].free {
			p.bps = append(p.bps[:k], p.bps[k+1:]...)
		}
	}
}

// EarliestFit returns the earliest time s >= after at which `nodes` nodes
// are continuously free for `dur` seconds. It always succeeds because
// capacity returns to a steady level after the final breakpoint; if that
// steady level is below nodes, ok is false.
func (p *Profile) EarliestFit(after, dur int64, nodes int) (s int64, ok bool) {
	return p.fit(after, math.MaxInt64, math.MaxInt64, dur, nodes)
}

// EarliestFitBefore is EarliestFit restricted to candidate starts strictly
// below limit: it returns the earliest s in [after, limit) at which the
// rectangle fits (the fit itself may extend past limit), or ok=false when
// no such start exists. Bounding the start lets the conservative engine's
// hole-aware partial rebuild probe just the released window [now, holeEnd)
// instead of scanning to a job's standing reservation, without ever walking
// breakpoints past the window.
func (p *Profile) EarliestFitBefore(after, limit, dur int64, nodes int) (s int64, ok bool) {
	return p.fit(after, limit, math.MaxInt64, dur, nodes)
}

// EarliestMove returns the earliest start s in [after, min(limit, res)) at
// which a rectangle of `nodes` nodes for `dur` seconds fits once the same
// rectangle, currently occupied on [res, res+dur), is released; ok is false
// when no such start exists. It reads the profile without mutating it: a
// window starting before res ends before res+dur, so inside [res, s+dur) the
// released nodes always cover the request, and only segments starting
// before res need checking. It answers exactly what Release, then
// EarliestFit(after, dur, nodes), tells about an earlier start below limit,
// so the static conservative engine's improvement pass only mutates the
// profile for a job that actually moves, and probes no further than the
// capacity that grew since its last fixpoint.
func (p *Profile) EarliestMove(after, limit, res, dur int64, nodes int) (s int64, ok bool) {
	return p.fit(after, min(limit, res), res, dur, nodes)
}

// fit is the hole search behind EarliestFit, EarliestFitBefore and
// EarliestMove: the earliest start s in [after, limit) at which `nodes`
// nodes are free for `dur` seconds, where every segment starting at or
// after freeFrom counts as free.
func (p *Profile) fit(after, limit, freeFrom, dur int64, nodes int) (s int64, ok bool) {
	if after >= limit {
		return 0, false
	}
	if nodes <= 0 || dur <= 0 {
		return after, nodes <= p.size
	}
	if nodes > p.size {
		return 0, false
	}
	if after < p.Origin() {
		after = p.Origin()
		if after >= limit {
			return 0, false
		}
	}
	// Candidate start s; scan forward, restarting s at the first breakpoint
	// that violates the capacity requirement within [s, s+dur).
	i := sort.Search(len(p.bps), func(i int) bool { return p.bps[i].t > after }) - 1
	s = after
	for s < limit {
		end := s + dur
		k := i
		// Advance k to the segment containing s.
		for k+1 < len(p.bps) && p.bps[k+1].t <= s {
			k++
		}
		violated := false
		for {
			if p.bps[k].free < nodes {
				// Restart after this segment.
				if k+1 >= len(p.bps) {
					return 0, false // steady tail lacks capacity
				}
				s = p.bps[k+1].t
				i = k + 1
				violated = true
				break
			}
			if k+1 >= len(p.bps) || p.bps[k+1].t >= end || p.bps[k+1].t >= freeFrom {
				break // window fully checked
			}
			k++
		}
		if !violated {
			return s, true
		}
	}
	return 0, false
}

// SteadyFree returns the capacity after the last breakpoint.
func (p *Profile) SteadyFree() int { return p.bps[len(p.bps)-1].free }

// Breakpoints returns a copy of the timeline as (time, free) pairs, for
// tests and diagnostics.
func (p *Profile) Breakpoints() (times []int64, free []int) {
	for _, bp := range p.bps {
		times = append(times, bp.t)
		free = append(free, bp.free)
	}
	return
}

// CheckInvariants verifies structural invariants (sorted strictly increasing
// times, capacities within [0,size], coalesced); tests call it after
// mutation sequences.
func (p *Profile) CheckInvariants() error {
	if len(p.bps) == 0 {
		return fmt.Errorf("profile: no breakpoints")
	}
	for i, bp := range p.bps {
		if bp.free < 0 || bp.free > p.size {
			return fmt.Errorf("profile: capacity %d out of range at index %d", bp.free, i)
		}
		if i > 0 {
			if bp.t <= p.bps[i-1].t {
				return fmt.Errorf("profile: non-increasing time at index %d", i)
			}
			if bp.free == p.bps[i-1].free {
				return fmt.Errorf("profile: uncoalesced equal capacities at index %d", i)
			}
		}
	}
	return nil
}
