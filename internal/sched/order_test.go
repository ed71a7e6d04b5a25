package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

// orderEnv is a minimal Env for exercising Orders directly.
type orderEnv struct {
	now int64
	fs  *fairshare.Tracker
}

func (e *orderEnv) Now() int64                     { return e.now }
func (e *orderEnv) SystemSize() int                { return 64 }
func (e *orderEnv) FreeNodes() int                 { return 64 }
func (e *orderEnv) Running() []sim.RunningJob      { return nil }
func (e *orderEnv) Fairshare() *fairshare.Tracker  { return e.fs }
func (e *orderEnv) Availability() *profile.Profile { return profile.New(e.now, 64, 64) }
func (e *orderEnv) Start(*job.Job) error           { return nil }

var _ sim.Env = (*orderEnv)(nil)

// ranksBefore reports whether a ranks before b under o through o's key,
// failing the test when the comparator oracle disagrees.
func ranksBefore(t *testing.T, o Order, env sim.Env, a, b *job.Job) bool {
	t.Helper()
	fs, now := env.Fairshare(), env.Now()
	got := fairshare.Compare(o.key(fs, now, a), a, o.key(fs, now, b), b) < 0
	if want := lessOracle(o, env, a, b); got != want {
		t.Errorf("%s at t=%d: key order puts %d before %d: %v, oracle %v", o.Name(), now, a.ID, b.ID, got, want)
	}
	return got
}

func mustOrder(t *testing.T, name string) Order {
	t.Helper()
	o, err := OrderByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOrderSemantics(t *testing.T) {
	env := &orderEnv{now: 1000, fs: fairshare.NewTracker(fairshare.Config{}, 0)}
	env.fs.Charge(1, 5000) // user 1 is heavier
	short := &job.Job{ID: 1, User: 1, Submit: 900, Estimate: 100, Nodes: 4}
	long := &job.Job{ID: 2, User: 2, Submit: 0, Estimate: 10000, Nodes: 2}
	wide := &job.Job{ID: 3, User: 3, Submit: 950, Estimate: 100, Nodes: 32}

	cases := []struct {
		order  string
		first  *job.Job
		second *job.Job
	}{
		{"fcfs", long, short},      // earlier submit wins
		{"fairshare", long, short}, // user 2 has no usage
		{"sjf", short, long},       // smaller estimate wins
		{"widest", wide, short},    // more nodes wins
		{"narrowest", long, wide},  // fewer nodes wins
		// lxf: long's factor is (1000-0+10000)/10000 = 1.1, wide's is
		// (1000-950+100)/100 = 1.5 -> wide first.
		{"lxf", wide, long},
	}
	for _, tc := range cases {
		o := mustOrder(t, tc.order)
		if !ranksBefore(t, o, env, tc.first, tc.second) {
			t.Errorf("%s: %d should come before %d", tc.order, tc.first.ID, tc.second.ID)
		}
		if ranksBefore(t, o, env, tc.second, tc.first) {
			t.Errorf("%s: order not antisymmetric for %d,%d", tc.order, tc.second.ID, tc.first.ID)
		}
	}
}

func TestOrderTieBreaksAreArrivalOrder(t *testing.T) {
	env := &orderEnv{now: 100, fs: fairshare.NewTracker(fairshare.Config{}, 0)}
	a := &job.Job{ID: 1, User: 1, Submit: 10, Estimate: 50, Nodes: 4}
	b := &job.Job{ID: 2, User: 2, Submit: 10, Estimate: 50, Nodes: 4}
	for _, name := range OrderNames() {
		o := mustOrder(t, name)
		if !ranksBefore(t, o, env, a, b) || ranksBefore(t, o, env, b, a) {
			t.Errorf("%s: equal-priority jobs must tie-break by id", name)
		}
	}
}

func TestOrderByNameRejectsUnknown(t *testing.T) {
	if _, err := OrderByName("alphabetical"); err == nil {
		t.Fatal("unknown order accepted")
	}
	if len(OrderNames()) < 4 {
		t.Fatalf("order registry too small: %v", OrderNames())
	}
}

func TestLXFGrowsWithWait(t *testing.T) {
	o := mustOrder(t, "lxf")
	early := &orderEnv{now: 0, fs: fairshare.NewTracker(fairshare.Config{}, 0)}
	late := &orderEnv{now: 100000, fs: early.fs}
	patient := &job.Job{ID: 1, User: 1, Submit: 0, Estimate: 10000, Nodes: 1}
	fresh := &job.Job{ID: 2, User: 2, Submit: 0, Estimate: 100, Nodes: 1}
	// At t=0 both have factor 1: the shorter job wins on... neither — tie
	// breaks to id order, so patient (id 1) first.
	if !ranksBefore(t, o, early, patient, fresh) {
		t.Error("equal factors should tie-break FCFS")
	}
	// Much later the short job's factor exploded: (100000+100)/100 >> 11.
	if !ranksBefore(t, o, late, fresh, patient) {
		t.Error("waiting short job should overtake on expansion factor")
	}
}

// randomQueue builds n jobs with unique, shuffled ids and heavily tied
// users, submissions, estimates and widths, so every tie-break is exercised.
func randomQueue(r *rand.Rand, n int) []*job.Job {
	ids := r.Perm(n)
	q := make([]*job.Job, n)
	for i := range q {
		q[i] = &job.Job{ID: job.ID(ids[i] + 1), User: 1 + r.Intn(4), Submit: 10 * int64(r.Intn(3)),
			Estimate: 1 + 100*int64(r.Intn(3)), Nodes: 1 + r.Intn(3)}
	}
	return q
}

// riskSet is a stub BreachRisk: the users it holds are at risk. Callers
// that change it mid-run must only flag users, never unflag them.
type riskSet map[int]bool

func (r riskSet) UserAtRisk(user int) bool { return r[user] }

func (r riskSet) FlaggedUsers() int {
	n := 0
	for _, at := range r {
		if at {
			n++
		}
	}
	return n
}

// randomSLOContext gives each of randomQueue's users a random breach-risk
// flag and either no wait target or one drawn from a small set that
// reaches job.MaxTime, so deadlines also tie across users and submits.
func randomSLOContext(r *rand.Rand) *sloContext {
	targets := []int64{1, 10, 20, job.MaxTime}
	deadlines, risk := mapDeadlines{}, riskSet{}
	for u := 1; u <= 4; u++ {
		if i := r.Intn(len(targets) + 1); i < len(targets) {
			deadlines[u] = targets[i]
		}
		risk[u] = r.Intn(2) == 0
	}
	return &sloContext{deadlines: deadlines, risk: risk}
}

// checkQueueSorter sorts a random queue, and then its sorted form, with a
// queueSorter under every order and checks the result against
// sort.SliceStable over the comparator oracle, and that sort reports a
// change exactly when its input was out of order. edf reads a random SLO
// context. The reservation-first form (byReservation) is checked the same
// way against the equivalent oracle-based comparator.
func checkQueueSorter(t *testing.T, r *rand.Rand, n int) {
	t.Helper()
	env := &orderEnv{now: 1000, fs: fairshare.NewTracker(fairshare.Config{}, 0)}
	env.fs.Charge(2, 5) // users 2 and 3 tie; user 1 has no usage
	env.fs.Charge(3, 5)
	env.fs.Charge(4, 10)
	q := randomQueue(r, n)
	res := make([]*reservedJob, n)
	for i, j := range q {
		res[i] = &reservedJob{job: j, res: int64(r.Intn(3)), hasRes: r.Intn(4) > 0}
	}
	for _, name := range OrderNames() {
		o := mustOrder(t, name)
		if e, ok := o.(*edfOrder); ok {
			e.ctx = randomSLOContext(r)
		}
		want := slices.Clone(q)
		sort.SliceStable(want, func(i, k int) bool { return lessOracle(o, env, want[i], want[k]) })
		s := jobSorter(o)
		for _, in := range [][]*job.Job{q, want} {
			got := slices.Clone(in)
			moved := s.sort(env, got, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: sorted %v, want %v", name, ids(got), ids(want))
			}
			if moved != !slices.Equal(in, want) {
				t.Fatalf("%s: sort of %v reported moved=%v", name, ids(in), moved)
			}
		}

		wantRes := slices.Clone(res)
		sort.SliceStable(wantRes, func(i, k int) bool {
			qi, qk := wantRes[i], wantRes[k]
			if qi.hasRes != qk.hasRes {
				return qi.hasRes
			}
			if qi.hasRes && qi.res != qk.res {
				return qi.res < qk.res
			}
			return lessOracle(o, env, qi.job, qk.job)
		})
		rs := newQueueSorter(o, func(q *reservedJob) *job.Job { return q.job })
		gotRes := slices.Clone(res)
		if moved := rs.sort(env, gotRes, byReservation); !slices.Equal(gotRes, wantRes) || moved != !slices.Equal(res, wantRes) {
			t.Fatalf("%s: reservation-first sort disagrees with the comparator (moved=%v)", name, moved)
		}
	}
}

// TestQueueSorterMatchesComparator is the differential property test of the
// priority-key path over seeded random queues.
func TestQueueSorterMatchesComparator(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for range 300 {
		checkQueueSorter(t, r, r.Intn(40))
	}
}

// TestKeyedOrders pins which orders are static, keeping their queues
// sorted between passes: all but fairshare and lxf, whose keys move with
// the clock.
func TestKeyedOrders(t *testing.T) {
	for _, name := range OrderNames() {
		_, static := mustOrder(t, name).epoch()
		if want := slices.Contains(staticOrders, name); static != want {
			t.Errorf("%s: static = %v, want %v", name, static, want)
		}
	}
	for _, name := range []string{"fairshare", "lxf"} {
		if slices.Contains(staticOrders, name) {
			t.Errorf("%s is listed static; its keys move with the clock", name)
		}
	}
}

// TestLXFKeyTiesPastExactnessBound pins the documented limit of the lxf
// key: past (now − submit_a + est_a)·est_b < 2^52, two factors closer than
// one ulp round to one key and tie into FCFS. At now = 2^31, a (est 2^30)
// has factor 2 + 2^−30 and b (est 2^30 − 1) has 2 + 1/(2^30 − 1), larger
// by about 2^−60 — below the ulp of 2, 2^−51. The exact order puts b
// first; the keys tie, and a, submitted first, leads.
func TestLXFKeyTiesPastExactnessBound(t *testing.T) {
	const q = 1 << 30
	env := &orderEnv{now: 2 * q}
	a := &job.Job{ID: 1, Submit: q - 1, Estimate: q, Nodes: 1}
	b := &job.Job{ID: 2, Submit: q, Estimate: q - 1, Nodes: 1}
	if (env.now-a.Submit+a.Estimate)*b.Estimate < 1<<52 {
		t.Fatal("the pair lies inside the exactness bound")
	}
	if !lessOracle(lxfOrder{}, env, b, a) {
		t.Fatal("the exact order should put b first")
	}
	ka, kb := lxfOrder{}.key(nil, env.now, a), lxfOrder{}.key(nil, env.now, b)
	if ka != kb || fairshare.Compare(ka, a, kb, b) >= 0 {
		t.Fatalf("keys %v, %v: want a tie broken FCFS, a first", ka, kb)
	}
}

// TestLXFRanksFactorsPastInt64Products runs list.lxf on a one-node machine
// whose blocker runs until 2^40: then A (estimate 2^40) has expansion
// factor 2 and B (estimate 1) has 2^40 + 1, so B starts first. A 64-bit
// cross-multiplied compare wraps here ((2^40 + 1)·2^40 > 2^63) and would
// start A first.
func TestLXFRanksFactorsPastInt64Products(t *testing.T) {
	const horizon = job.MaxTime
	jobs := []*job.Job{
		{ID: 1, User: 1, Runtime: horizon, Estimate: horizon, Nodes: 1},
		{ID: 2, User: 2, Runtime: 1, Estimate: horizon, Nodes: 1},
		{ID: 3, User: 3, Runtime: 1, Estimate: 1, Nodes: 1},
	}
	// A decay interval past the horizon keeps the run free of decay wakes.
	cfg := sim.Config{SystemSize: 1, Fairshare: fairshare.Config{DecayInterval: 2 * horizon}, Validate: true}
	res, err := sim.New(cfg, MustParse("list.lxf")).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	start := map[job.ID]int64{}
	for _, r := range res.Records {
		start[r.Job.ID] = r.Start
	}
	if start[3] != horizon || start[2] != horizon+1 {
		t.Fatalf("B started at %d and A at %d; want B at %d, then A", start[3], start[2], int64(horizon))
	}
}
