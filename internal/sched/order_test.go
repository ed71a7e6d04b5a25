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

// orderEnv is a minimal Env for exercising Order comparators directly.
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
		if !o.Less(env, tc.first, tc.second) {
			t.Errorf("%s: %d should come before %d", tc.order, tc.first.ID, tc.second.ID)
		}
		if o.Less(env, tc.second, tc.first) {
			t.Errorf("%s: comparator not antisymmetric for %d,%d", tc.order, tc.second.ID, tc.first.ID)
		}
	}
}

func TestOrderTieBreaksAreArrivalOrder(t *testing.T) {
	env := &orderEnv{now: 100, fs: fairshare.NewTracker(fairshare.Config{}, 0)}
	a := &job.Job{ID: 1, User: 1, Submit: 10, Estimate: 50, Nodes: 4}
	b := &job.Job{ID: 2, User: 2, Submit: 10, Estimate: 50, Nodes: 4}
	for _, name := range OrderNames() {
		o := mustOrder(t, name)
		if !o.Less(env, a, b) || o.Less(env, b, a) {
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
	if !o.Less(early, patient, fresh) {
		t.Error("equal factors should tie-break FCFS")
	}
	// Much later the short job's factor exploded: (100000+100)/100 >> 11.
	if !o.Less(late, fresh, patient) {
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
// sort.SliceStable over Order.Less, and that sort reports a change exactly
// when its input was out of order. edf reads a random SLO context. The
// reservation-first form (byReservation) is checked the same way against
// the equivalent Less-based comparator.
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
		sort.SliceStable(want, func(i, k int) bool { return o.Less(env, want[i], want[k]) })
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
			return o.Less(env, qi.job, qk.job)
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

// TestKeyedOrders pins which orders are keyed (all but lxf) and which of
// those are static, keeping their queues sorted between passes (all but
// fairshare).
func TestKeyedOrders(t *testing.T) {
	for _, name := range OrderNames() {
		ko, keyed := mustOrder(t, name).(keyOrder)
		if want := name != "lxf"; keyed != want {
			t.Errorf("%s: keyed = %v, want %v", name, keyed, want)
		}
		if !keyed {
			continue
		}
		if _, static := ko.epoch(); static != slices.Contains(staticOrders, name) {
			t.Errorf("%s: static = %v", name, static)
		}
	}
}
