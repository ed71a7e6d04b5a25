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

// TestWidthFilteredBackfillMatchesReference checks the backfill pass and
// the main queue's width bound against referenceBackfill, which has
// neither the width filter nor the bound, in two ways.
//
// One pass (checkOnePass): random instants with overrun back-offs, random
// queues at reservation depths 0 to 3, with and without a tail (the main
// queue behind a starvation queue), and any valid width bound, down to
// ones that skip the main queue's scan. Both must start the same jobs in
// the same order and leave the same queues. A pass where no candidate fits
// the free nodes must never read the availability profile, and the bound
// must still hold afterwards.
//
// Event sequences (checkEvents): an engine built from a random spec —
// depth 0 to 3, sjf, fcfs or lxf order, with or without a starvation queue
// — and a replica of its schedule that calls referenceBackfill see the same
// arrivals, preemption requeues (which re-enter through arrive) and wakes
// at fresh random instants, and must start the same jobs and keep the same
// queues after every event. Passes that skip the main queue's scan must
// occur.
func TestWidthFilteredBackfillMatchesReference(t *testing.T) {
	skips := 0
	f := func(seed int64) bool {
		return checkOnePass(t, seed) && checkEvents(t, seed, &skips)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
	if skips == 0 {
		t.Fatal("no event sequence skipped the main queue's scan")
	}
}

func checkOnePass(t *testing.T, seed int64) bool {
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
	if len(q) > 0 && rng.Intn(2) == 0 {
		tail = randomQueue(rng.Intn(12))
	}
	fits := false
	for _, c := range slices.Concat(q[min(depth, len(q)):], tail) {
		fits = fits || c.Nodes <= base.free
	}

	refEnv, env := *base, *base
	refQ, refTail := referenceBackfill(&refEnv, slices.Clone(q), depth, slices.Clone(tail))
	e := aggressiveEngine{comp: &Composite{}, depth: depth, main: slices.Clone(q)}
	if tail != nil {
		e.starve = &starvation{depth: depth}
		e.starved, e.main = e.main, slices.Clone(tail)
	}
	// Any lower bound on the main queue's widths is valid.
	e.minWidth = max(0, minWidth(e.main)-rng.Intn(3))
	e.backfill(&env)
	gotQ, gotTail := e.main, []*job.Job(nil)
	if tail != nil {
		gotQ, gotTail = e.starved, e.main
	}

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
	if e.minWidth > minWidth(e.main) {
		t.Logf("seed %d depth %d: width bound %d above the main queue's least width %d", seed, depth, e.minWidth, minWidth(e.main))
		return false
	}
	return true
}

func checkEvents(t *testing.T, seed int64, skips *int) bool {
	rng := rand.New(rand.NewSource(seed))
	const size = 32
	depth := rng.Intn(4)
	spec := Spec{Order: []string{"sjf", "fcfs", "lxf"}[rng.Intn(3)], Backfill: BackfillNoGuarantee}
	switch {
	case depth == 1:
		spec.Backfill = BackfillEASY
	case depth > 1:
		spec.Backfill, spec.Depth = BackfillDepth, depth
	}
	if depth < 2 && rng.Intn(2) == 0 {
		spec.Wait, spec.Heavy, spec.Depth = 300, HeavyAll, 1+rng.Intn(2)
	}
	pol, ref := MustNew(spec), MustNew(spec)
	now := int64(10000)
	envs := [2]*passEnv{randomPassEnv(rng, now, size), nil}
	envs[1] = new(passEnv)
	*envs[1] = *envs[0]
	pol.Reset(envs[0])
	ref.Reset(envs[1])
	eng, reng := pol.engine.(*aggressiveEngine), ref.engine.(*aggressiveEngine)
	var id job.ID
	var started []*job.Job
	for step := rng.Intn(8) + 1; step > 0; step-- {
		now += 25 * int64(rng.Intn(8))
		base := randomPassEnv(rng, now, size)
		*envs[0], *envs[1] = *base, *base
		wake := false
		var j *job.Job
		switch k := rng.Intn(4); {
		case k == 0:
			wake = true
		case k == 1 && len(started) > 0:
			// A preemption remainder re-enters the queue through arrive.
			prev := started[rng.Intn(len(started))]
			id++
			j = &job.Job{ID: id, Submit: prev.Submit, Segment: prev.Segment + 1, Estimate: prev.Estimate, Nodes: prev.Nodes}
		default:
			id++
			j = &job.Job{ID: id, Submit: now - 25*int64(rng.Intn(16)), Estimate: 25 * int64(rng.Intn(24)+1), Nodes: rng.Intn(size) + 1}
		}
		if wake || j == nil {
			if len(eng.main) > 0 && envs[0].free < eng.minWidth {
				*skips++
			}
			pol.Wake(envs[0])
			referenceSchedule(reng, envs[1])
		} else {
			pol.Arrive(envs[0], j)
			reng.main = reng.prio.insert(envs[1], reng.main, j)
			referenceSchedule(reng, envs[1])
		}
		started = append(started, envs[0].started...)
		got := fmt.Sprint(ids(envs[0].started), ids(eng.starved), ids(eng.main))
		want := fmt.Sprint(ids(envs[1].started), ids(reng.starved), ids(reng.main))
		if got != want {
			t.Logf("seed %d %s: started, starved, main = %s, want %s", seed, spec.Canonical(), got, want)
			return false
		}
		if eng.minWidth > minWidth(eng.main) {
			t.Logf("seed %d %s: width bound %d above the main queue's least width %d", seed, spec.Canonical(), eng.minWidth, minWidth(eng.main))
			return false
		}
	}
	return true
}

// referenceSchedule is aggressiveEngine.schedule with referenceBackfill
// for its pass: no width filter, no width bound.
func referenceSchedule(e *aggressiveEngine, env sim.Env) {
	if e.starve != nil {
		e.main, e.starved = e.starve.promote(env, e.main, e.starved)
		e.comp.startHeads(env, &e.starved)
	}
	e.prio.sort(env, e.main, nil)
	if len(e.starved) > 0 {
		e.starved, e.main = referenceBackfill(env, e.starved, e.starve.depth, e.main)
		return
	}
	e.comp.startHeads(env, &e.main)
	e.main, _ = referenceBackfill(env, e.main, e.depth, nil)
}

// minWidth is the least width in q, math.MaxInt when q is empty.
func minWidth(q []*job.Job) int {
	w := math.MaxInt
	for _, j := range q {
		w = min(w, j.Nodes)
	}
	return w
}
