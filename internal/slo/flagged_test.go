package slo

import (
	"math/rand"
	"testing"

	"fairsched/internal/job"
)

// flagAssignment tags users 1..12 across wait-only, slowdown-only and
// combined classes; user 13 is untagged.
func flagAssignment(r *rand.Rand) *Assignment {
	b := NewBuilder()
	b.AddClass("w", Target{Wait: 100})
	b.AddClass("s", Target{Slowdown: 3})
	b.AddClass("ws", Target{Wait: 300, Slowdown: 5})
	classes := []string{"w", "s", "ws"}
	for u := 1; u <= 12; u++ {
		b.Tag(u, classes[r.Intn(len(classes))])
	}
	return b.Build()
}

// checkFlagged asserts FlaggedUsers equals the number of users UserBreached
// reports, and that it did not fall below prev. It returns the count.
func checkFlagged(t *testing.T, tr *Tracker, prev int, when string) int {
	t.Helper()
	want := 0
	for u := 1; u <= 13; u++ {
		if tr.UserBreached(u) {
			want++
		}
	}
	got := tr.FlaggedUsers()
	if got != want {
		t.Fatalf("%s: FlaggedUsers = %d, UserBreached holds for %d users", when, got, want)
	}
	if got < prev {
		t.Fatalf("%s: FlaggedUsers fell from %d to %d", when, prev, got)
	}
	return got
}

// feedFlagged judges n random jobs of users 1..13 — plain jobs, and in
// chained mode also two-segment chains — checking the flagged-user count
// after every judgment.
func feedFlagged(t *testing.T, r *rand.Rand, tr *Tracker, chained bool, n int) {
	t.Helper()
	tr.SetChained(chained)
	flagged := 0
	step := func(when string) { flagged = checkFlagged(t, tr, flagged, when) }
	for i := range n {
		u := 1 + r.Intn(13)
		submit := r.Int63n(1000)
		start := submit + r.Int63n(400)
		run := 1 + r.Int63n(200)
		id := job.ID(2*i + 1)
		if !chained || r.Intn(2) == 0 {
			j := &job.Job{ID: id, User: u, Submit: submit, Runtime: run, Estimate: run, Nodes: 1}
			tr.JobStarted(j, start, 0, false)
			step("wait judgment")
			tr.JobCompleted(j, start, start+run)
			step("slowdown judgment")
			continue
		}
		gap := r.Int63n(300)
		seg := func(k int, sub int64) *job.Job {
			return &job.Job{ID: id + job.ID(k-1), User: u, Submit: sub, Runtime: run, Estimate: run, Nodes: 1,
				Parent: id, Segment: k, Segments: 2}
		}
		first, second := seg(1, submit), seg(2, start+run)
		tr.JobStarted(first, start, 0, false)
		step("chain wait judgment")
		tr.JobCompleted(first, start, start+run)
		step("chain head completion")
		tr.JobStarted(second, start+run+gap, 0, false)
		tr.JobCompleted(second, start+run+gap, start+2*run+gap)
		step("chained slowdown judgment")
	}
}

// TestFlaggedUsersCountsBreachedUsers: the tracker's flagged-user count —
// the edf order's key epoch — equals the number of users UserBreached
// reports after every wait, slowdown and chained judgment, never falls
// during a run, and is recomputed by Merge.
func TestFlaggedUsersCountsBreachedUsers(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for range 50 {
		a := flagAssignment(r)
		chained := r.Intn(2) == 0
		x, y := NewTracker(a), NewTracker(a)
		feedFlagged(t, r, x, chained, r.Intn(30))
		feedFlagged(t, r, y, chained, r.Intn(30))
		x.Merge(y)
		checkFlagged(t, x, 0, "merge")
		empty := NewTracker(a)
		empty.Merge(x)
		checkFlagged(t, empty, 0, "merge into an empty tracker")
	}
}
