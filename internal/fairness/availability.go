// Package fairness implements the paper's fairness metrics for parallel job
// scheduling: the hybrid "fairshare" fair-start-time metric (§4.1, the
// paper's contribution), the CONS-P fair start time, the Sabin/Sadayappan
// no-later-arrivals fair start time, and the resource-equality metric, plus
// the aggregate unfairness statistics (percent unfair jobs, average miss
// time — Equation 5).
package fairness

import (
	"fmt"
	"sort"

	"fairsched/internal/sim"
)

// availability is the node-availability multiset of a list scheduler: entry
// (t, n) means n nodes become free at time t. The paper's hybrid metric
// describes it per node ("a list scheduler keeps track of a completion time
// for each node"); run-length encoding over times is equivalent and keeps
// each operation O(distinct times) instead of O(system size).
//
// The live entries are entries[head:], sorted by time. allocate consumes
// from the front, so it only advances head; add shifts whichever side of
// its insertion point is shorter, reusing the vacated front slots. The
// backing array is compacted when it fills with at least as many vacated
// slots as live entries, so it stays within a constant factor of the
// largest live size.
type availability struct {
	entries []availEntry
	head    int
	total   int
}

type availEntry struct {
	t int64
	n int
}

// newAvailability seeds the multiset from the system state at an arrival:
// free nodes are available now; each running job's nodes free up at its
// actual completion (perfect estimates, as in CONS-P). A running segment of
// a checkpoint chain holds its nodes for the chain's remaining runtime: in
// the fair reference schedule the restarts continue seamlessly.
func newAvailability(now int64, free int, running []sim.RunningJob) *availability {
	a := &availability{}
	if free > 0 {
		a.entries = append(a.entries, availEntry{t: now, n: free})
		a.total = free
	}
	for _, r := range running {
		a.add(r.Start+r.Job.EffectiveRuntime(), r.Job.Nodes)
	}
	return a
}

// live returns the multiset's entries in time order.
func (a *availability) live() []availEntry { return a.entries[a.head:] }

// search returns the index in entries of the first live entry at or after t.
func (a *availability) search(t int64) int {
	return a.head + sort.Search(len(a.entries)-a.head, func(i int) bool { return a.entries[a.head+i].t >= t })
}

// add inserts n nodes becoming free at t, merging equal times.
func (a *availability) add(t int64, n int) {
	if n <= 0 {
		return
	}
	a.total += n
	i := a.search(t)
	if i < len(a.entries) && a.entries[i].t == t {
		a.entries[i].n += n
		return
	}
	if a.head > 0 && i-a.head < len(a.entries)-i {
		// Shift the shorter front side into the vacated slot before it.
		a.head--
		copy(a.entries[a.head:i-1], a.entries[a.head+1:i])
		a.entries[i-1] = availEntry{t: t, n: n}
		return
	}
	if len(a.entries) == cap(a.entries) && a.head >= len(a.entries)-a.head {
		// Full, and at least half of it vacated: compact instead of growing.
		live := copy(a.entries, a.entries[a.head:])
		a.entries = a.entries[:live]
		i -= a.head
		a.head = 0
	}
	a.entries = append(a.entries, availEntry{})
	copy(a.entries[i+1:], a.entries[i:])
	a.entries[i] = availEntry{t: t, n: n}
}

// remove deletes n nodes from the entry at exactly t; the inverse of add.
// The entry must exist and hold at least n nodes.
func (a *availability) remove(t int64, n int) error {
	if n <= 0 {
		return nil
	}
	i := a.search(t)
	if i >= len(a.entries) || a.entries[i].t != t || a.entries[i].n < n {
		return fmt.Errorf("fairness: no %d nodes releasing at t=%d in multiset", n, t)
	}
	a.entries[i].n -= n
	a.total -= n
	if a.entries[i].n == 0 {
		if i-a.head < len(a.entries)-1-i {
			copy(a.entries[a.head+1:i+1], a.entries[a.head:i])
			a.head++
		} else {
			copy(a.entries[i:], a.entries[i+1:])
			a.entries = a.entries[:len(a.entries)-1]
		}
	}
	return nil
}

// reset empties the multiset in place, keeping the backing array.
func (a *availability) reset() {
	a.entries = a.entries[:0]
	a.head = 0
	a.total = 0
}

// copyFrom makes a an exact copy of src, reusing a's backing array — the
// allocation-free seeding step of the per-arrival scratch multiset.
func (a *availability) copyFrom(src *availability) {
	a.entries = append(a.entries[:0], src.live()...)
	a.head = 0
	a.total = src.total
}

// allocate places a job needing `nodes` nodes for `runtime` seconds at the
// earliest time that many nodes are simultaneously free — the n-th smallest
// availability time — consumes those nodes and returns them at start +
// runtime. It returns the start time.
func (a *availability) allocate(nodes int, runtime int64) (int64, error) {
	if nodes > a.total {
		return 0, fmt.Errorf("fairness: job needs %d nodes, multiset holds %d", nodes, a.total)
	}
	need := nodes
	idx := a.head
	for ; idx < len(a.entries); idx++ {
		if a.entries[idx].n >= need {
			break
		}
		need -= a.entries[idx].n
	}
	start := a.entries[idx].t
	// Consume the `need` nodes from entry idx and all live entries before
	// it by advancing the head.
	if a.entries[idx].n == need {
		idx++
	} else {
		a.entries[idx].n -= need
	}
	a.head = idx
	if a.head == len(a.entries) {
		a.entries, a.head = a.entries[:0], 0
	}
	a.total -= nodes
	a.add(start+runtime, nodes)
	return start, nil
}

// Total returns the node count represented (constant across allocations).
func (a *availability) Total() int { return a.total }
