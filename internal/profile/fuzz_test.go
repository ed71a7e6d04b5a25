package profile

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// coalesce merges adjacent breakpoints with equal capacity: the whole-slice
// pass that once ended every adjustment, kept as the reference oracle.
func coalesce(bps []breakpoint) []breakpoint {
	out := bps[:1]
	for _, bp := range bps[1:] {
		if bp.free == out[len(out)-1].free {
			continue
		}
		out = append(out, bp)
	}
	return out
}

var errRejected = errors.New("reference: rejected adjustment")

// refProfile is the reference model FuzzProfileOps checks Profile against:
// it splits the timeline at both ends of an adjustment with a linear scan,
// shifts the covered segments, and re-coalesces the whole slice whether the
// adjustment was applied or rejected.
type refProfile struct {
	size int
	bps  []breakpoint
}

func newRef(origin int64, size int) *refProfile {
	return &refProfile{size: size, bps: []breakpoint{{t: origin, free: size}}}
}

// split makes a breakpoint exist at t (t >= origin) and returns its index.
func (r *refProfile) split(t int64) int {
	for i, bp := range r.bps {
		if bp.t == t {
			return i
		}
		if bp.t > t {
			r.bps = slices.Insert(r.bps, i, breakpoint{t: t, free: r.bps[i-1].free})
			return i
		}
	}
	r.bps = append(r.bps, breakpoint{t: t, free: r.bps[len(r.bps)-1].free})
	return len(r.bps) - 1
}

func (r *refProfile) adjust(from, to int64, delta int) error {
	if to <= from || from < r.bps[0].t {
		return errRejected
	}
	if delta == 0 {
		return nil
	}
	i := r.split(from)
	j := r.split(to)
	var err error
	for k := i; k < j; k++ {
		if nf := r.bps[k].free + delta; nf < 0 || nf > r.size {
			err = errRejected
		}
	}
	if err == nil {
		for k := i; k < j; k++ {
			r.bps[k].free += delta
		}
	}
	r.bps = coalesce(r.bps)
	return err
}

// trimBefore drops the breakpoints before the segment containing t once at
// least trimSlack of them have accumulated, like Profile.TrimBefore.
func (r *refProfile) trimBefore(t int64) {
	c := 0
	for k, bp := range r.bps {
		if bp.t <= t {
			c = k
		}
	}
	if c < trimSlack {
		return
	}
	r.bps = slices.Clone(r.bps[c:])
	if r.bps[0].t < t {
		r.bps[0].t = t
	}
}

func (r *refProfile) clone() *refProfile {
	return &refProfile{size: r.size, bps: slices.Clone(r.bps)}
}

// FuzzProfileOps applies a byte-decoded sequence of Occupy, Release (rejected
// ones included), TrimBefore and CopyFrom to a Profile and to the reference
// model, and checks after every op that the two timelines are equal, that
// the profile's invariants hold, and that a rejected op left the timeline
// unchanged. CopyFrom copies the live profile into a spare and continues on
// the copy, so the original, now the spare, must stay untouched by the ops
// that follow.
//
// Each op is four bytes: kind, then a, b, c. Occupy and Release act on
// [origin+a-16, that+b%48) with c%(size+1) nodes, so some start before the
// origin, some are empty and many overflow; TrimBefore moves to origin+a.
func FuzzProfileOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 26, 10, 3, 0, 36, 10, 3, 1, 26, 20, 3, 1, 16, 5, 9})
	// Many narrow rectangles, then a trim past them: exercises compaction.
	var layered []byte
	for k := byte(0); k < 60; k++ {
		layered = append(layered, 0, 16+4*k, 2, 1+k%3)
	}
	layered = append(layered, 2, 250, 0, 0, 0, 20, 30, 4, 3, 0, 0, 0, 1, 20, 30, 4)
	f.Add(layered)
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 4*120)
	rng.Read(random)
	f.Add(random)

	const size = 8
	f.Fuzz(func(t *testing.T, ops []byte) {
		p, spare := New(0, size, size), New(0, size, size)
		ref, refSpare := newRef(0, size), newRef(0, size)
		var before []breakpoint
		for n := 0; n+4 <= len(ops); n += 4 {
			kind, a, b, c := ops[n]%4, int64(ops[n+1]), int64(ops[n+2]), int(ops[n+3])
			origin := p.Origin()
			from, to, nodes := origin+a-16, origin+a-16+b%48, c%(size+1)
			before = append(before[:0], p.bps...)
			var err, refErr error
			switch kind {
			case 0:
				err, refErr = p.Occupy(from, to, nodes), ref.adjust(from, to, -nodes)
			case 1:
				err, refErr = p.Release(from, to, nodes), ref.adjust(from, to, nodes)
			case 2:
				p.TrimBefore(origin + a)
				ref.trimBefore(origin + a)
			case 3:
				spare.CopyFrom(p)
				p, spare = spare, p
				ref, refSpare = ref.clone(), ref
			}
			if (err != nil) != (refErr != nil) {
				t.Fatalf("op %d (kind %d [%d,%d) x%d): profile err %v, reference err %v", n/4, kind, from, to, nodes, err, refErr)
			}
			if err != nil && !slices.Equal(p.bps, before) {
				t.Fatalf("op %d: rejected %v changed the timeline: %v -> %v", n/4, err, before, p.bps)
			}
			if !slices.Equal(p.bps, ref.bps) {
				t.Fatalf("op %d (kind %d [%d,%d) x%d): profile %v, reference %v", n/4, kind, from, to, nodes, p.bps, ref.bps)
			}
			if !slices.Equal(spare.bps, refSpare.bps) {
				t.Fatalf("op %d: spare profile diverged from its reference", n/4)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", n/4, err)
			}
		}
	})
}
