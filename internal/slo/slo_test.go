package slo

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/sim"
)

func testAssignment() *Assignment {
	b := NewBuilder()
	b.AddClass("p50", Target{Wait: 100})
	b.AddClass("p90", Target{Wait: 1000, Slowdown: 8})
	b.AddClass("default", Target{Slowdown: 4})
	b.Tag(1, "p50")
	b.Tag(2, "p50")
	b.Tag(3, "p90")
	b.Tag(4, "default")
	return b.Build()
}

func TestBuilderOrderAndOverride(t *testing.T) {
	a := testAssignment()
	if a.NumUsers() != 4 {
		t.Fatalf("users = %d, want 4", a.NumUsers())
	}
	cs := a.Classes()
	if len(cs) != 3 || cs[0].Name != "p50" || cs[1].Name != "p90" || cs[2].Name != "default" {
		t.Fatalf("class order wrong: %+v", cs)
	}
	if cs[0].Users != 2 || cs[1].Users != 1 || cs[2].Users != 1 {
		t.Fatalf("class user counts wrong: %+v", cs)
	}
	ut, ok := a.Lookup(3)
	if !ok || ut.Class != "p90" || ut.Target.Wait != 1000 || ut.Target.Slowdown != 8 {
		t.Fatalf("Lookup(3) = %+v, %v", ut, ok)
	}
	if _, ok := a.Lookup(99); ok {
		t.Fatal("untagged user resolved")
	}

	// Re-tagging moves the user; re-registering a class re-targets it.
	b := NewBuilder()
	b.AddClass("a", Target{Wait: 10})
	b.AddClass("b", Target{Wait: 20})
	b.Tag(1, "a")
	b.Tag(1, "b")
	b.AddClass("a", Target{Wait: 30})
	a2 := b.Build()
	if ut, _ := a2.Lookup(1); ut.Class != "b" || ut.Target.Wait != 20 {
		t.Fatalf("re-tag lost: %+v", ut)
	}
	if a2.Classes()[0].Target.Wait != 30 {
		t.Fatalf("re-registered class target not replaced: %+v", a2.Classes()[0])
	}
}

func TestBuildDropsZeroTargets(t *testing.T) {
	b := NewBuilder()
	b.AddClass("besteffort", Target{})
	b.Tag(1, "besteffort")
	if a := b.Build(); a != nil {
		t.Fatalf("assignment with only zero targets should be nil, got %+v", a)
	}
}

// Every Assignment accessor — and the tracker built over one — must
// tolerate the nil value Build returns for an empty assignment.
func TestNilAssignmentSafe(t *testing.T) {
	var a *Assignment
	if a.NumUsers() != 0 || a.Users() != nil || a.Classes() != nil {
		t.Fatal("nil assignment accessors not empty")
	}
	if _, ok := a.Lookup(1); ok {
		t.Fatal("nil assignment resolved a user")
	}
	tr := NewTracker(nil)
	j := &job.Job{ID: 1, User: 1, Submit: 0, Runtime: 10, Estimate: 10, Nodes: 1}
	tr.JobStarted(j, 5, 0, false)
	tr.JobCompleted(j, 5, 15)
	if s := tr.Summary(); s.Total.Jobs != 0 || len(s.Classes) != 0 {
		t.Fatalf("nil-assignment tracker measured something: %+v", s)
	}
	if s := FromRecords(nil, []*sim.Record{{Job: j, Start: 5, Complete: 15}}, nil).Summary(); s.Total.Jobs != 0 {
		t.Fatalf("nil-assignment reference measured something: %+v", s)
	}
}

// WaitTarget reads the wait field in place; it must agree with Lookup for
// tagged users with and without a wait target, untagged users and the nil
// assignment.
func TestWaitTargetMatchesLookup(t *testing.T) {
	for _, a := range []*Assignment{testAssignment(), nil} {
		for _, u := range []int{1, 3, 4, 99} {
			ut, ok := a.Lookup(u)
			wantOK := ok && ut.Target.Wait > 0
			want := int64(0)
			if wantOK {
				want = ut.Target.Wait
			}
			if got, gotOK := a.WaitTarget(u); got != want || gotOK != wantOK {
				t.Errorf("WaitTarget(%d) = %d, %v; Lookup says %d, %v", u, got, gotOK, want, wantOK)
			}
		}
	}
}

func TestTrackerWaitJudgment(t *testing.T) {
	a := testAssignment()
	tr := NewTracker(a)
	j := &job.Job{ID: 7, User: 1, Submit: 0, Runtime: 50, Estimate: 50, Nodes: 1}
	// Within target: attained at start (user 1 has no slowdown target).
	tr.JobStarted(j, 100, 0, false)
	tr.JobCompleted(j, 100, 150)
	// Breach of 60s, fair start within target -> unfair breach.
	j2 := &job.Job{ID: 8, User: 1, Submit: 0, Runtime: 50, Estimate: 50, Nodes: 1}
	tr.JobStarted(j2, 160, 90, true)
	tr.JobCompleted(j2, 160, 210)
	// Breach of 900s, fair start also over target -> infeasible.
	j3 := &job.Job{ID: 9, User: 1, Submit: 0, Runtime: 50, Estimate: 50, Nodes: 1}
	tr.JobStarted(j3, 1000, 500, true)
	tr.JobCompleted(j3, 1000, 1050)

	u := tr.PerUser()[0]
	want := UserStats{
		User: 1, Class: "p50", Jobs: 3, Attained: 1,
		WaitBreaches: 2, TotalWaitBreach: 960, WorstWaitBreach: 900, WorstWaitJob: 9,
		UnfairWait: 1, InfeasibleWait: 1,
	}
	if u != want {
		t.Fatalf("user stats = %+v, want %+v", u, want)
	}
	s := tr.Summary()
	if s.Classes[0].WaitBreaches != 2 || s.Classes[0].UnfairWait != 1 || s.Classes[0].InfeasibleWait != 1 {
		t.Fatalf("class stats wrong: %+v", s.Classes[0])
	}
	if got := s.Classes[0].AttainPct(); math.Abs(got-100.0/3) > 1e-9 {
		t.Fatalf("attain%% = %v", got)
	}
	// p95 over breaches {60, 900}: rank 2 -> the 900 bin's upper edge.
	if s.Classes[0].BreachP95 < 900 || s.Classes[0].BreachP95 > 1024 {
		t.Fatalf("breach p95 = %d, want within [900, 1024]", s.Classes[0].BreachP95)
	}
}

func TestTrackerSlowdownJudgment(t *testing.T) {
	a := testAssignment()
	tr := NewTracker(a)
	// User 3: wait 1000, slowdown 8. Job runs 100s after waiting 500s:
	// slowdown (500+100)/100 = 6 <= 8, wait ok -> attained at completion.
	j := &job.Job{ID: 1, User: 3, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 1}
	tr.JobStarted(j, 500, 0, false)
	if tr.PerUser()[2].Attained != 0 {
		t.Fatal("slowdown-target job attained before completion")
	}
	tr.JobCompleted(j, 500, 600)
	if u := tr.PerUser()[2]; u.Attained != 1 || u.Jobs != 1 {
		t.Fatalf("stats = %+v", u)
	}
	// Wait ok but slowdown breached: (900+100)/100 = 10 > 8.
	j2 := &job.Job{ID: 2, User: 3, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 1}
	tr.JobStarted(j2, 900, 0, false)
	tr.JobCompleted(j2, 900, 1000)
	u := tr.PerUser()[2]
	if u.Attained != 1 || u.SlowBreaches != 1 || u.WorstSlowdown != 10 || u.WaitBreaches != 0 {
		t.Fatalf("stats = %+v", u)
	}
	// Short job: the bound clamps the denominator. Wait 95s, run 1s ->
	// (95+10)/10 = 10.5 > 8.
	j3 := &job.Job{ID: 3, User: 3, Submit: 0, Runtime: 1, Estimate: 1, Nodes: 1}
	tr.JobStarted(j3, 95, 0, false)
	tr.JobCompleted(j3, 95, 96)
	if u := tr.PerUser()[2]; u.SlowBreaches != 2 || u.WorstSlowdown != 10.5 {
		t.Fatalf("bounded slowdown wrong: %+v", u)
	}
}

func TestTrackerSkipsRestartsAndUntagged(t *testing.T) {
	a := testAssignment()
	tr := NewTracker(a)
	restart := &job.Job{ID: 5, User: 1, Submit: 0, Runtime: 10, Estimate: 10, Nodes: 1,
		Parent: 4, Segment: 2, Segments: 3}
	tr.JobStarted(restart, 5000, 0, false)
	tr.JobCompleted(restart, 5000, 5010)
	untagged := &job.Job{ID: 6, User: 42, Submit: 0, Runtime: 10, Estimate: 10, Nodes: 1}
	tr.JobStarted(untagged, 5000, 0, false)
	tr.JobCompleted(untagged, 5000, 5010)
	for _, u := range tr.PerUser() {
		if u.Jobs != 0 {
			t.Fatalf("restart or untagged job measured: %+v", u)
		}
	}
	// A chain's first segment IS measured.
	first := &job.Job{ID: 7, User: 1, Submit: 0, Runtime: 10, Estimate: 10, Nodes: 1,
		Parent: 4, Segment: 1, Segments: 3, ChainRuntime: 30}
	tr.JobStarted(first, 50, 0, false)
	if tr.PerUser()[0].Jobs != 1 {
		t.Fatal("first segment not measured")
	}
}

// The tracker's updates are commutative: feeding the same outcomes in any
// order reaches the identical state (the invariant that makes the online
// observer equal to the record-ordered reference).
func TestTrackerOrderIndependence(t *testing.T) {
	a := testAssignment()
	type ev struct {
		j     *job.Job
		start int64
		fst   int64
		has   bool
	}
	rng := rand.New(rand.NewSource(3))
	var evs []ev
	for i := 0; i < 200; i++ {
		evs = append(evs, ev{
			j: &job.Job{ID: job.ID(i + 1), User: rng.Intn(6), Submit: rng.Int63n(100),
				Runtime: rng.Int63n(400) + 1, Estimate: 10, Nodes: 1},
			start: rng.Int63n(5000) + 100,
			fst:   rng.Int63n(5000) + 100,
			has:   rng.Intn(2) == 0,
		})
	}
	run := func(order []int) *Tracker {
		tr := NewTracker(a)
		for _, i := range order {
			e := evs[i]
			tr.JobStarted(e.j, e.start, e.fst, e.has)
			tr.JobCompleted(e.j, e.start, e.start+e.j.Runtime)
		}
		return tr
	}
	fwd := make([]int, len(evs))
	for i := range fwd {
		fwd[i] = i
	}
	shuffled := append([]int(nil), fwd...)
	rng.Shuffle(len(shuffled), func(i, k int) { shuffled[i], shuffled[k] = shuffled[k], shuffled[i] })
	ta, tb := run(fwd), run(shuffled)
	if !reflect.DeepEqual(ta.PerUser(), tb.PerUser()) {
		t.Fatal("per-user stats depend on event order")
	}
	if !reflect.DeepEqual(ta.Summary(), tb.Summary()) {
		t.Fatal("summary depends on event order")
	}
}

func TestFromRecordsMatchesManualFeed(t *testing.T) {
	a := testAssignment()
	recs := []*sim.Record{
		{Job: &job.Job{ID: 1, User: 1, Submit: 0, Runtime: 50, Estimate: 50, Nodes: 1}, Start: 150, Complete: 200},
		{Job: &job.Job{ID: 2, User: 3, Submit: 10, Runtime: 100, Estimate: 100, Nodes: 1}, Start: 900, Complete: 1000},
	}
	fst := map[job.ID]int64{1: 50, 2: 700}
	ref := FromRecords(a, recs, fst)
	tr := NewTracker(a)
	for _, r := range recs {
		f, ok := fst[r.Job.ID]
		tr.JobStarted(r.Job, r.Start, f, ok)
		tr.JobCompleted(r.Job, r.Start, r.Complete)
	}
	if !reflect.DeepEqual(ref.PerUser(), tr.PerUser()) {
		t.Fatal("FromRecords diverges from manual feed")
	}
}

// breachBin must be monotone and every value must fall inside its bin's
// [lower, upper] range; the upper edge must overestimate by at most the
// sub-bin width.
func TestBreachBinLayout(t *testing.T) {
	prev := -1
	for _, v := range []int64{1, 2, 7, 8, 9, 15, 16, 17, 100, 1000, 3600, 86400,
		1 << 20, 1<<20 + 1, 1 << 40, (1 << 62) + 5} {
		b := breachBin(v)
		if b < prev {
			t.Fatalf("breachBin not monotone at %d: bin %d after %d", v, b, prev)
		}
		prev = b
		if b >= numBreachBins {
			t.Fatalf("bin %d of %d out of range", b, numBreachBins)
		}
		hi := binUpperEdge(b)
		if v > hi {
			t.Fatalf("value %d above its bin's upper edge %d", v, hi)
		}
		if float64(hi) > float64(v)*1.125+1 {
			t.Fatalf("upper edge %d overestimates %d by more than 12.5%%", hi, v)
		}
	}
	// Exhaustive continuity over the exact and first sub-binned octaves.
	for v := int64(1); v < 64; v++ {
		b1, b2 := breachBin(v), breachBin(v+1)
		if b2 != b1 && b2 != b1+1 {
			t.Fatalf("bin jump at %d: %d -> %d", v, b1, b2)
		}
		if lo := v; binUpperEdge(breachBin(lo)) < lo {
			t.Fatalf("upper edge below value at %d", v)
		}
	}
}

func TestHistP95(t *testing.T) {
	hist := make([]int64, numBreachBins)
	if histP95(hist) != 0 {
		t.Fatal("empty histogram p95 not 0")
	}
	// 95 small breaches of 3s, 5 of 1000s: the ceiling rank 95 lands in
	// the 3s bin.
	hist[breachBin(3)] = 95
	hist[breachBin(1000)] = 5
	if got := histP95(hist); got != 3 {
		t.Fatalf("p95 = %d, want 3", got)
	}
	// 94 + 6: rank 95 crosses into the 1000s bin.
	hist[breachBin(3)] = 94
	hist[breachBin(1000)] = 6
	got := histP95(hist)
	if got < 1000 || got > 1024 {
		t.Fatalf("p95 = %d, want the 1000s bin's upper edge", got)
	}
}

func TestAttainPctEmptyClass(t *testing.T) {
	c := ClassStats{}
	if c.AttainPct() != 100 {
		t.Fatal("empty class should attain 100%")
	}
}

func TestOffendersRankingAndBound(t *testing.T) {
	b := NewBuilder()
	b.AddClass("p50", Target{Wait: 100})
	for u := 1; u <= 6; u++ {
		b.Tag(u, "p50")
	}
	tr := NewTracker(b.Build())
	// user 1: 2 breaches (50+10 excess); user 2: 2 breaches (70 excess);
	// user 3: 1 breach (500); user 4: attained; user 5: 1 breach (500) —
	// ties user 3 on every key except id; user 6: 1 breach (5).
	breach := func(user int, id job.ID, excess int64) {
		tr.JobStarted(&job.Job{ID: id, User: user, Submit: 0}, 100+excess, 0, false)
	}
	breach(1, 1, 50)
	breach(1, 2, 10)
	breach(2, 3, 40)
	breach(2, 8, 30)
	breach(3, 4, 500)
	tr.JobStarted(&job.Job{ID: 5, User: 4, Submit: 0}, 50, 0, false)
	breach(5, 6, 500)
	breach(6, 7, 5)
	s := tr.Summary()
	if len(s.Offenders) != MaxOffenders {
		t.Fatalf("offenders = %d, want %d", len(s.Offenders), MaxOffenders)
	}
	// user 2 first (2 breaches, 70 > 60 total), then user 1 (2 breaches),
	// then user 3 (1 breach, 500 excess, lower id than user 5).
	want := []int{2, 1, 3}
	for i, w := range want {
		if s.Offenders[i].User != w {
			t.Fatalf("offender[%d] = user %d, want %d (full: %+v)", i, s.Offenders[i].User, w, s.Offenders)
		}
	}
	if s.Offenders[0].Breached() != 2 || s.Offenders[2].TotalWaitBreach != 500 {
		t.Fatalf("offender stats wrong: %+v", s.Offenders)
	}
}

func TestOffendersEmptyWhenAllAttained(t *testing.T) {
	tr := NewTracker(testAssignment())
	tr.JobStarted(&job.Job{ID: 1, User: 1, Submit: 0}, 50, 0, false)
	if s := tr.Summary(); len(s.Offenders) != 0 {
		t.Fatalf("offenders = %+v, want none", s.Offenders)
	}
}

// Offender selection must be independent of accounting order: feed the same
// breaches in shuffled orders and require identical offender lists.
func TestOffendersOrderIndependence(t *testing.T) {
	b := NewBuilder()
	b.AddClass("c", Target{Wait: 10})
	for u := 1; u <= 12; u++ {
		b.Tag(u, "c")
	}
	asg := b.Build()
	type ev struct {
		id    job.ID
		user  int
		start int64
	}
	var evs []ev
	for u := 1; u <= 12; u++ {
		for k := 0; k <= u%4; k++ {
			evs = append(evs, ev{job.ID(100*u + k), u, int64(10 + 7*u + 3*k)})
		}
	}
	run := func(order []int) []UserStats {
		tr := NewTracker(asg)
		for _, i := range order {
			e := evs[i]
			tr.JobStarted(&job.Job{ID: e.id, User: e.user, Submit: 0}, e.start, 0, false)
		}
		return tr.Summary().Offenders
	}
	base := make([]int, len(evs))
	for i := range base {
		base[i] = i
	}
	ref := run(base)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		order := append([]int(nil), base...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if got := run(order); !reflect.DeepEqual(got, ref) {
			t.Fatalf("offenders depend on accounting order:\n got %+v\nwant %+v", got, ref)
		}
	}
}

func TestSummaryValueByKey(t *testing.T) {
	tr := NewTracker(testAssignment())
	// user 1 (p50, wait 100): breach by 50; user 3 (p90): attained.
	tr.JobStarted(&job.Job{ID: 1, User: 1, Submit: 0}, 150, 0, false)
	tr.JobStarted(&job.Job{ID: 2, User: 3, Submit: 0}, 100, 0, false)
	tr.JobCompleted(&job.Job{ID: 2, User: 3, Submit: 0}, 100, 200)
	s := tr.Summary()
	cases := map[string]float64{
		"p50.jobs": 1, "p50.breached": 1, "p50.attain_pct": 0,
		"p50.total_wait_breach": 50, "p90.attained": 1, "p90.attain_pct": 100,
		"all.jobs": 2, "all.breached": 1, "all.attain_pct": 50,
		"default.jobs": 0, "default.attain_pct": 100,
		"p50.users": 2, "p50.active_users": 1,
	}
	for key, want := range cases {
		got, err := s.ValueByKey(key)
		if err != nil {
			t.Fatalf("ValueByKey(%q): %v", key, err)
		}
		if got != want {
			t.Errorf("ValueByKey(%q) = %v, want %v", key, got, want)
		}
	}
	for _, key := range []string{"", "p50", "nope.jobs", "p50.bogus", "all.", ".jobs"} {
		if _, err := s.ValueByKey(key); err == nil {
			t.Errorf("ValueByKey(%q) did not fail", key)
		}
	}
}

// chainRecords builds one 3-segment chained split (parent id 10, segments
// 11..13) for user u: segment k+1's submit is segment k's completion, as
// sim.SplitChained produces. Each segment runs 100s; the chain's first
// segment waits 50s and the requeue gaps add another 150s of waiting.
func chainRecords(u int) []*sim.Record {
	seg := func(id job.ID, k int, submit, start, complete int64) *sim.Record {
		return &sim.Record{
			Job: &job.Job{ID: id, User: u, Submit: submit, Runtime: 100,
				Estimate: 100, Nodes: 1, Parent: 10, Segment: k, Segments: 3},
			Start: start, Complete: complete,
		}
	}
	return []*sim.Record{
		seg(11, 1, 0, 50, 150),
		seg(12, 2, 150, 200, 300),
		seg(13, 3, 300, 400, 500),
	}
}

// TestChainedSlowdownJudgment: in chained mode a split chain is judged
// once, at its last segment's completion, against the ORIGINAL submit —
// slow = (total wait + run')/run' with run' = max(Σ realized runtimes,
// SlowdownBound) — so the requeue delays between segments are priced in.
// The default per-segment judgment sees only segment 1 and misses them.
func TestChainedSlowdownJudgment(t *testing.T) {
	b := NewBuilder()
	// Chain slowdown = (200 + 300)/300 ≈ 1.67 > 1.6: a breach. Segment 1
	// alone = (50 + 100)/100 = 1.5 <= 1.6: attained. The target separates
	// the two judgments.
	b.AddClass("c", Target{Wait: 100, Slowdown: 1.6})
	b.Tag(1, "c")
	a := b.Build()
	recs := chainRecords(1)

	chained := NewTracker(a)
	chained.SetChained(true)
	for _, r := range recs {
		chained.JobStarted(r.Job, r.Start, 0, false)
		chained.JobCompleted(r.Job, r.Start, r.Complete)
	}
	u := chained.PerUser()[0]
	if u.Jobs != 1 {
		t.Fatalf("chain counted %d jobs, want 1 (judged once)", u.Jobs)
	}
	if u.Attained != 0 || u.SlowBreaches != 1 {
		t.Fatalf("chained judgment: attained=%d slowbreaches=%d, want 0/1", u.Attained, u.SlowBreaches)
	}
	wantSlow := (200.0 + 300.0) / 300.0
	if math.Abs(u.WorstSlowdown-wantSlow) > 1e-12 {
		t.Fatalf("chain slowdown = %v, want %v", u.WorstSlowdown, wantSlow)
	}

	perSeg := NewTracker(a)
	for _, r := range recs {
		perSeg.JobStarted(r.Job, r.Start, 0, false)
		perSeg.JobCompleted(r.Job, r.Start, r.Complete)
	}
	if u := perSeg.PerUser()[0]; u.Jobs != 1 || u.Attained != 1 || u.SlowBreaches != 0 {
		t.Fatalf("per-segment judgment: %+v, want 1 job attained", u)
	}
}

// TestChainedWaitJudgedAtFirstSegment: the wait target is still judged at
// the chain's FIRST start (its queuing delay); a chain whose user has no
// slowdown target settles there and carries no chain state.
func TestChainedWaitJudgedAtFirstSegment(t *testing.T) {
	b := NewBuilder()
	b.AddClass("w", Target{Wait: 40}) // first wait 50 > 40: breach
	b.Tag(1, "w")
	tr := NewTracker(b.Build())
	tr.SetChained(true)
	for _, r := range chainRecords(1) {
		tr.JobStarted(r.Job, r.Start, 0, false)
		tr.JobCompleted(r.Job, r.Start, r.Complete)
	}
	if len(tr.chains) != 0 {
		t.Fatalf("wait-only chain left state: %d in flight", len(tr.chains))
	}
	u := tr.PerUser()[0]
	if u.Jobs != 1 || u.WaitBreaches != 1 || u.TotalWaitBreach != 10 || u.Attained != 0 {
		t.Fatalf("wait judgment over chain: %+v", u)
	}
}

// TestFromRecordsChainedMatchesManualFeed: the chained reference equals a
// manual chained feed, and differs from the non-chained reference on a
// workload where the chain-level judgment flips the verdict.
func TestFromRecordsChainedMatchesManualFeed(t *testing.T) {
	b := NewBuilder()
	b.AddClass("c", Target{Wait: 100, Slowdown: 1.6})
	b.Tag(1, "c")
	a := b.Build()
	recs := chainRecords(1)
	ref := FromRecordsChained(a, recs, nil)
	tr := NewTracker(a)
	tr.SetChained(true)
	for _, r := range recs {
		tr.JobStarted(r.Job, r.Start, 0, false)
		tr.JobCompleted(r.Job, r.Start, r.Complete)
	}
	if !reflect.DeepEqual(ref.PerUser(), tr.PerUser()) {
		t.Fatal("FromRecordsChained diverges from manual chained feed")
	}
	if reflect.DeepEqual(FromRecords(a, recs, nil).PerUser(), ref.PerUser()) {
		t.Fatal("chained and per-segment judgments agree on a chain built to separate them")
	}
}

// TestMergeRejectsInFlightChains: Merge demands fully settled trackers —
// an in-flight chain (started, not yet completed) must panic loudly
// rather than silently losing the chain's judgment.
func TestMergeRejectsInFlightChains(t *testing.T) {
	b := NewBuilder()
	b.AddClass("c", Target{Slowdown: 2})
	b.Tag(1, "c")
	a := b.Build()
	tr := NewTracker(a)
	tr.SetChained(true)
	first := chainRecords(1)[0]
	tr.JobStarted(first.Job, first.Start, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Merge with in-flight chain state did not panic")
		}
	}()
	tr.Merge(NewTracker(a))
}
