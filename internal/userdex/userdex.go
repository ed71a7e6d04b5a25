// Package userdex provides a compact paged map keyed by user id, the
// interning layer behind the per-user hot paths (fairshare usage, SLO
// assignment lookup, the simulator's running-set aggregation index).
//
// Workload user-id spaces are dense in practice — archive traces and both
// generators number users from a small base — so the map is a slice of
// fixed-size pages with a presence bitmap per page: a lookup is two array
// indexes and a bit test instead of a hash probe, and iteration walks the
// pages in ascending key order for free. Pages are allocated on first
// touch, so memory tracks the occupied id range, not the declared one. A
// plain Go map catches everything the paged range cannot host (negative
// ids, ids past DenseCap), so any int key works; only its performance is
// second-class.
//
// A Map is not safe for concurrent mutation, but any number of readers
// may call Get/Len/Range concurrently once mutation has stopped (campaign
// cells share frozen SLO assignments across their concurrent policy runs).
package userdex

import (
	"math/bits"
	"sort"
)

const (
	pageBits = 10
	// PageSize is the number of keys per page; one absent key in an
	// otherwise-occupied page costs sizeof(V) bytes, so the worst-case
	// overhead of an adversarially sparse key set is PageSize*sizeof(V)
	// per occupied page.
	PageSize = 1 << pageBits
	pageMask = PageSize - 1
	// DenseCap bounds the paged key range; keys at or above it (and
	// negative keys) fall back to the sparse map.
	DenseCap = 1 << 26
)

// page holds one aligned block of values with a presence bitmap.
type page[V any] struct {
	bits [PageSize / 64]uint64
	vals [PageSize]V
}

// Map is a paged dense map from user ids to V. The zero value is an empty
// map ready for use.
type Map[V any] struct {
	pages  []*page[V]
	sparse map[int]V
	n      int
}

// Len returns the number of stored keys.
func (m *Map[V]) Len() int { return m.n }

// Get returns the value for k.
func (m *Map[V]) Get(k int) (V, bool) {
	if uint(k) < DenseCap {
		if pi := k >> pageBits; pi < len(m.pages) {
			if p := m.pages[pi]; p != nil {
				o := k & pageMask
				if p.bits[o>>6]&(1<<(o&63)) != 0 {
					return p.vals[o], true
				}
			}
		}
		var zero V
		return zero, false
	}
	v, ok := m.sparse[k]
	return v, ok
}

// Set stores v under k.
func (m *Map[V]) Set(k int, v V) {
	if uint(k) < DenseCap {
		pi := k >> pageBits
		for pi >= len(m.pages) {
			m.pages = append(m.pages, nil)
		}
		p := m.pages[pi]
		if p == nil {
			p = new(page[V])
			m.pages[pi] = p
		}
		o := k & pageMask
		if p.bits[o>>6]&(1<<(o&63)) == 0 {
			p.bits[o>>6] |= 1 << (o & 63)
			m.n++
		}
		p.vals[o] = v
		return
	}
	if m.sparse == nil {
		m.sparse = make(map[int]V)
	}
	if _, ok := m.sparse[k]; !ok {
		m.n++
	}
	m.sparse[k] = v
}

// Delete removes k. The value slot is zeroed so pointer-carrying values do
// not leak past deletion.
func (m *Map[V]) Delete(k int) {
	if uint(k) < DenseCap {
		if pi := k >> pageBits; pi < len(m.pages) {
			if p := m.pages[pi]; p != nil {
				o := k & pageMask
				if p.bits[o>>6]&(1<<(o&63)) != 0 {
					p.bits[o>>6] &^= 1 << (o & 63)
					var zero V
					p.vals[o] = zero
					m.n--
				}
			}
		}
		return
	}
	if _, ok := m.sparse[k]; ok {
		delete(m.sparse, k)
		m.n--
	}
}

// Range visits every entry in ascending key order (negative sparse keys,
// then the paged range, then sparse keys past DenseCap) until f returns
// false. f must not mutate the map. The paged walk is allocation-free;
// a non-empty sparse fallback costs one sorted key slice per call.
func (m *Map[V]) Range(f func(k int, v V) bool) {
	var lo, hi []int
	if len(m.sparse) > 0 {
		for k := range m.sparse {
			if k < 0 {
				lo = append(lo, k)
			} else {
				hi = append(hi, k)
			}
		}
		sort.Ints(lo)
		sort.Ints(hi)
	}
	for _, k := range lo {
		if !f(k, m.sparse[k]) {
			return
		}
	}
	for pi, p := range m.pages {
		if p == nil {
			continue
		}
		for wi, w := range p.bits {
			for w != 0 {
				o := wi<<6 | bits.TrailingZeros64(w)
				if !f(pi<<pageBits|o, p.vals[o]) {
					return
				}
				w &= w - 1
			}
		}
	}
	for _, k := range hi {
		if !f(k, m.sparse[k]) {
			return
		}
	}
}
