package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

// referenceBackfill is the backfill pass without the width filter: it
// places the reservations up front and offers every candidate to an
// admission test that checks the free nodes itself.
func referenceBackfill(env sim.Env, q []*job.Job, depth int, tail []*job.Job) ([]*job.Job, []*job.Job) {
	depth = min(depth, len(q))
	now := env.Now()
	resAt, shadow := int64(math.MaxInt64), 0
	var prof *profile.Profile
	switch {
	case depth == 1:
		resAt, shadow = reservation(env, q[0].Nodes)
	case depth > 1:
		prof = env.Availability().Clone()
		for _, r := range q[:depth] {
			if _, err := reserve(prof, now, r); err != nil {
				panic(err)
			}
		}
	}
	admit := func(c *job.Job) bool {
		if c.Nodes > env.FreeNodes() {
			return false
		}
		if prof == nil {
			if now+c.Estimate > resAt {
				if c.Nodes > shadow {
					return false
				}
				shadow -= c.Nodes
			}
		} else {
			if !fitsNow(prof, now, c) {
				return false
			}
			if err := prof.Occupy(now, now+c.Estimate, c.Nodes); err != nil {
				panic(err)
			}
		}
		if err := env.Start(c); err != nil {
			panic(err)
		}
		return true
	}
	offer := func(q []*job.Job) []*job.Job {
		kept := q[:0]
		for _, c := range q {
			if !admit(c) {
				kept = append(kept, c)
			}
		}
		return kept
	}
	rest := offer(q[depth:])
	return q[:depth+len(rest)], offer(tail)
}

// TestWidthFilteredBackfillMatchesReference drives the backfill pass and
// referenceBackfill over the same random instants: running sets with
// overrun back-offs, random queues at reservation depths 0 to 3, with and
// without a tail queue (the main queue behind a starvation queue). Both
// must start the same jobs in the same order and leave the same queues. A
// pass where no candidate fits the free nodes must never read the
// availability profile.
func TestWidthFilteredBackfillMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size, now = 32, int64(10000)
		base := randomPassEnv(rng, now, size)
		var id job.ID
		randomQueue := func(n int) []*job.Job {
			q := make([]*job.Job, n)
			for i := range q {
				id++
				q[i] = &job.Job{ID: id, Estimate: 25 * int64(rng.Intn(24)+1), Nodes: rng.Intn(size) + 1}
			}
			return q
		}
		depth := rng.Intn(4)
		q := randomQueue(rng.Intn(12))
		var tail []*job.Job
		if rng.Intn(2) == 0 {
			tail = randomQueue(rng.Intn(12))
		}
		fits := false
		for _, c := range slices.Concat(q[min(depth, len(q)):], tail) {
			fits = fits || c.Nodes <= base.free
		}

		refEnv, env := *base, *base
		refQ, refTail := referenceBackfill(&refEnv, slices.Clone(q), depth, slices.Clone(tail))
		e := aggressiveEngine{comp: &Composite{}}
		gotQ, gotTail := e.backfill(&env, slices.Clone(q), depth, slices.Clone(tail))

		got := fmt.Sprint(ids(env.started), ids(gotQ), ids(gotTail))
		want := fmt.Sprint(ids(refEnv.started), ids(refQ), ids(refTail))
		if got != want {
			t.Logf("seed %d depth %d: started, queue, tail = %s, want %s", seed, depth, got, want)
			return false
		}
		if !fits && env.availCalls != 0 {
			t.Logf("seed %d depth %d: a pass where nothing fits read the availability profile %d times", seed, depth, env.availCalls)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}
