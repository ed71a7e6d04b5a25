package fairness

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/workload"
)

// referenceFST is the pre-incremental hybrid engine: at every arrival it
// re-sorts the whole queue through the tracker and rebuilds the
// availability multiset from env.Running(). It is the executable spec the
// incremental engine must match FST-for-FST (DESIGN.md §10).
type referenceFST struct {
	sim.BaseObserver
	fst map[job.ID]int64
}

func newReferenceFST() *referenceFST {
	return &referenceFST{fst: make(map[job.ID]int64)}
}

func (h *referenceFST) JobArrived(env sim.Env, j *job.Job, queued []*job.Job) {
	if j.Segment > 1 {
		return
	}
	order := make([]*job.Job, 0, len(queued)+1)
	for _, q := range queued {
		if q.Segment > 1 {
			continue
		}
		order = append(order, q)
	}
	order = append(order, j)
	fs := env.Fairshare()
	slices.SortStableFunc(order, func(a, b *job.Job) int {
		return fairshare.Compare(fs.Usage(a.User), a, fs.Usage(b.User), b)
	})

	avail := newAvailability(env.Now(), env.FreeNodes(), env.Running())
	for _, q := range order {
		start, err := avail.allocate(q.Nodes, q.EffectiveRuntime())
		if err != nil {
			panic(fmt.Sprintf("fairness: reference FST: %v", err))
		}
		if q.ID == j.ID {
			h.fst[j.ID] = start
			return
		}
	}
}

// queueCheck is an observer attached after the incremental engine: at
// every arrival it checks the engine's own queue against the policy's, so
// FST queue = arrived first segments − started holds event by event, and
// restart segments (split or preemption remainders) never enter it. Each
// bucket holds its users' jobs, and only theirs, in (Submit, ID) order with
// matching per-user counts, and no user is in two buckets.
type queueCheck struct {
	sim.BaseObserver
	t   *testing.T
	inc *HybridFST
}

func (c queueCheck) JobArrived(_ sim.Env, j *job.Job, queued []*job.Job) {
	want := map[job.ID]bool{}
	if j.Segment <= 1 {
		want[j.ID] = true
	}
	for _, q := range queued {
		if q.Segment <= 1 {
			want[q.ID] = true
		}
	}
	n, seen := 0, map[int]bool{}
	for _, g := range c.inc.ties {
		count := map[int]int{}
		for k, q := range g.jobs {
			if k > 0 && !before(g.jobs[k-1], q) {
				c.t.Fatalf("bucket %v holds job %d out of order", g.usage, q.ID)
			}
			if q.Segment > 1 {
				c.t.Fatalf("restart segment %d (segment %d) in the FST queue", q.ID, q.Segment)
			}
			if !want[q.ID] {
				c.t.Fatalf("job %d in the FST queue but not queued", q.ID)
			}
			count[q.User]++
		}
		for _, u := range g.users {
			if seen[u.user] || u.jobs == 0 || count[u.user] != u.jobs {
				c.t.Fatalf("user %d in bucket %v: %d jobs counted, %d held (or a second bucket)", u.user, g.usage, u.jobs, count[u.user])
			}
			seen[u.user] = true
			delete(count, u.user)
		}
		if len(count) > 0 {
			c.t.Fatalf("bucket %v holds jobs of users it does not list: %v", g.usage, count)
		}
		n += len(g.jobs)
	}
	if n != len(want) {
		c.t.Fatalf("FST queue holds %d jobs, the policy queue %d first segments", n, len(want))
	}
}

// TestHybridFSTMatchesFromScratchReference: the incremental engine's FST
// table must equal the from-scratch reference's, entry for entry, on calm
// and contended generated workloads across representative policies —
// including checkpoint chains (max-runtime splitting), wall-clock kills,
// which exercise the multiset's remove path with promised release times
// that were never reached, checkpoint preemption under an SLO context,
// whose requeued remainders must stay out of the engine's queue, and
// batches of same-instant arrivals.
func TestHybridFSTMatchesFromScratchReference(t *testing.T) {
	type cfg struct {
		name   string
		sim    sim.Config
		scale  float64
		policy string
		slo    bool  // attach an SLO observer and hand the policy its context
		batch  int64 // when > 0, submits round down to multiples of it
	}
	h := int64(3600)
	cases := []cfg{
		{"calm-baseline", sim.Config{SystemSize: 500, Validate: true}, 0.02, "cplant24.nomax.all", false, 0},
		{"contended-baseline", sim.Config{SystemSize: 100, Validate: true}, 0.05, "cplant24.nomax.all", false, 0},
		{"contended-cons", sim.Config{SystemSize: 100, Validate: true}, 0.05, "cons.nomax", false, 0},
		{"contended-consdyn", sim.Config{SystemSize: 100, Validate: true}, 0.05, "consdyn.nomax", false, 0},
		{"contended-list", sim.Config{SystemSize: 100, Validate: true}, 0.05, "list.fairshare", false, 0},
		{"split-chains", sim.Config{SystemSize: 100, MaxRuntime: 24 * h, Split: sim.SplitChained, Validate: true}, 0.05, "cplant24.72max.all", false, 0},
		{"split-upfront", sim.Config{SystemSize: 100, MaxRuntime: 24 * h, Split: sim.SplitUpfront, Validate: true}, 0.05, "cplant24.72max.all", false, 0},
		{"kill-always", sim.Config{SystemSize: 100, Kill: sim.KillAlways, Validate: true}, 0.05, "easy.fairshare", false, 0},
		{"kill-when-needed", sim.Config{SystemSize: 100, Kill: sim.KillWhenNeeded, Validate: true}, 0.05, "cplant24.nomax.fair", false, 0},
		{"easy-preempt", sim.Config{SystemSize: 100, Preemptable: true, Validate: true}, 0.05, "easy.preempt", true, 0},
		{"edf-preempt", sim.Config{SystemSize: 100, Preemptable: true, Validate: true}, 0.05, "edf.preempt", true, 0},
		{"same-instant-batches", sim.Config{SystemSize: 100, Validate: true}, 0.05, "easy", false, 6 * h},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs, err := workload.Generate(workload.Config{Seed: 7, Scale: tc.scale, SystemSize: tc.sim.SystemSize})
			if err != nil {
				t.Fatal(err)
			}
			if tc.batch > 0 {
				for _, j := range jobs {
					j.Submit -= j.Submit % tc.batch
				}
			}
			inc := NewHybridFST()
			ref := newReferenceFST()
			pol := sched.MustParse(tc.policy)
			observers := []sim.Observer{inc, queueCheck{t: t, inc: inc}, ref}
			if tc.slo {
				asg := sloAssignmentFor(jobs)
				obs := NewSLOObserver(asg, inc)
				obs.SetChained(true)
				pol.SetSLOContext(asg, obs)
				observers = append(observers, obs)
			}
			res, err := sim.New(tc.sim, pol, observers...).Run(jobs)
			if err != nil {
				t.Fatal(err)
			}
			if tc.sim.Preemptable && !hasRestart(res) {
				t.Fatal("no preemption happened: the case does not exercise remainders")
			}
			if len(inc.fst) == 0 {
				t.Fatal("no FSTs recorded")
			}
			if len(inc.fst) != len(ref.fst) {
				t.Fatalf("incremental recorded %d FSTs, reference %d", len(inc.fst), len(ref.fst))
			}
			for id, want := range ref.fst {
				if got, ok := inc.fst[id]; !ok || got != want {
					t.Fatalf("job %d: incremental FST %d (ok=%v), reference %d", id, got, ok, want)
				}
			}
		})
	}
}

// hasRestart reports whether a run requeued any segment past the first.
func hasRestart(res *sim.Result) bool {
	for _, r := range res.Records {
		if r.Job.Segment > 1 {
			return true
		}
	}
	return false
}

// TestHybridFSTMatchesReferenceRandomized sweeps random small workloads
// with mixed over/underestimates through both engines.
func TestHybridFSTMatchesReferenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		n := rng.Intn(40) + 5
		jobs := make([]*job.Job, n)
		for i := range jobs {
			runtime := rng.Int63n(500) + 1
			est := runtime
			switch rng.Intn(3) {
			case 0:
				est = runtime * (rng.Int63n(8) + 1)
			case 1:
				est = runtime/2 + 1
			}
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(5) + 1,
				Submit:   rng.Int63n(2000),
				Runtime:  runtime,
				Estimate: est,
				Nodes:    rng.Intn(size) + 1,
			}
		}
		inc := NewHybridFST()
		ref := newReferenceFST()
		pol := sched.MustParse("cplant24.nomax.all")
		if _, err := sim.New(sim.Config{SystemSize: size, Validate: true}, pol, inc, ref).Run(jobs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for id, want := range ref.fst {
			if got := inc.fst[id]; got != want {
				t.Fatalf("seed %d job %d: incremental %d != reference %d", seed, id, got, want)
			}
		}
	}
}

// TestHybridFSTTiedUsersInterleave: users of equal usage form one tie
// group whose jobs the reference orders by (Submit, ID) across users. Four
// users who never ran (all at zero usage) submit interleaved jobs, some at
// the same instant, behind a machine-wide wall; every FST must match the
// reference's.
func TestHybridFSTTiedUsersInterleave(t *testing.T) {
	const size = 8
	jobs := []*job.Job{{ID: 1, User: 9, Submit: 0, Runtime: 1000, Estimate: 1000, Nodes: size}}
	for i := 0; i < 24; i++ {
		runtime := int64(50 + 37*(i%5))
		jobs = append(jobs, &job.Job{
			ID: job.ID(i + 2), User: []int{3, 1, 4, 2, 1, 3}[i%6], Submit: int64(10 + 10*(i/3)),
			Runtime: runtime, Estimate: runtime, Nodes: 1 + (i*5)%size,
		})
	}
	inc, ref := NewHybridFST(), newReferenceFST()
	obs := []sim.Observer{inc, queueCheck{t: t, inc: inc}, ref}
	if _, err := sim.New(sim.Config{SystemSize: size, Validate: true}, sched.MustParse("list.fairshare"), obs...).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if len(inc.fst) != len(jobs) {
		t.Fatalf("incremental recorded %d FSTs, want %d", len(inc.fst), len(jobs))
	}
	for id, want := range ref.fst {
		if got := inc.fst[id]; got != want {
			t.Fatalf("job %d: incremental FST %d, reference %d", id, got, want)
		}
	}
}

// FuzzHybridFSTOps drives the engine and referenceFST through arbitrary
// arrivals (out of (Submit, ID) order within a user, too), starts of any
// queued job that fits, completions at any time and usage charges that
// tie users at equal non-zero usage. Every arrival's FST must match the
// reference's, and the queue invariant must hold throughout.
func FuzzHybridFSTOps(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 2, 9, 0, 9, 4, 1, 0, 0, 3, 5, 6, 0, 1, 3, 2, 0, 0, 0, 7, 2})
	f.Add([]byte{0, 0, 15, 0, 1, 1, 0, 2, 2, 3, 6, 13, 3, 0, 7, 0, 3, 3, 0, 4, 4, 1, 1, 0, 0, 1, 5})
	f.Add([]byte{0, 8, 2, 0, 9, 2, 0, 10, 2, 1, 2, 0, 1, 0, 0, 0, 11, 2, 2, 0, 0, 0, 12, 2})
	f.Add([]byte{0, 0, 3, 0, 10, 3, 0, 5, 3, 0, 1, 3})
	f.Fuzz(checkHybridFSTOps)
}

func checkHybridFSTOps(t *testing.T, data []byte) {
	const size = 16
	if len(data) > 3*256 {
		data = data[:3*256] // the reference re-sorts the whole queue per arrival
	}
	env := &probeEnv{systemSize: size, free: size, now: 1000}
	env.fs = fairshare.NewTracker(fairshare.DefaultConfig(), 0)
	inc, ref := NewHybridFST(), newReferenceFST()
	check := queueCheck{t: t, inc: inc}
	var queue []*job.Job
	var id job.ID
	for ; len(data) >= 3; data = data[3:] {
		op, x, y := data[0], data[1], data[2]
		switch op % 4 {
		case 0:
			id++
			runtime := int64(y/16)*40 + 1
			j := &job.Job{ID: id, User: int(x % 5), Submit: env.now - int64(x/5%3), Runtime: runtime, Estimate: runtime, Nodes: int(y%size) + 1}
			inc.JobArrived(env, j, nil)
			ref.JobArrived(env, j, queue)
			if inc.fst[id] != ref.fst[id] {
				t.Fatalf("job %d: incremental FST %d, reference %d", id, inc.fst[id], ref.fst[id])
			}
			queue = append(queue, j)
			check.JobArrived(env, j, queue[:len(queue)-1])
		case 1:
			if len(queue) == 0 {
				break
			}
			k := int(x) % len(queue)
			if j := queue[k]; j.Nodes <= env.free {
				queue = slices.Delete(queue, k, k+1)
				env.free -= j.Nodes
				env.running = append(env.running, sim.RunningJob{Job: j, Start: env.now})
				inc.JobStarted(env, j)
			}
		case 2:
			if len(env.running) == 0 {
				break
			}
			k := int(x) % len(env.running)
			r := env.running[k]
			env.running = slices.Delete(env.running, k, k+1)
			env.free += r.Job.Nodes
			inc.JobCompleted(env, r.Job, r.Start)
		case 3:
			env.now += int64(x % 64)
			env.fs.Charge(int(y%5), float64(y/5%3)*100)
		}
	}
}

// probeEnv is a minimal sim.Env for driving the hybrid engine standalone:
// a contended system (every node claimed by staggered running jobs) with a
// deep queue, so one JobArrived exercises the full reference list schedule.
type probeEnv struct {
	now        int64
	systemSize int
	free       int
	running    []sim.RunningJob
	fs         *fairshare.Tracker
}

func (e *probeEnv) Now() int64                     { return e.now }
func (e *probeEnv) SystemSize() int                { return e.systemSize }
func (e *probeEnv) FreeNodes() int                 { return e.free }
func (e *probeEnv) Running() []sim.RunningJob      { return e.running }
func (e *probeEnv) Fairshare() *fairshare.Tracker  { return e.fs }
func (e *probeEnv) Availability() *profile.Profile { return nil } // unused by the engine
func (e *probeEnv) Start(*job.Job) error           { return nil } // the probe never starts jobs

// newArrivalProbe assembles a hybrid engine against a synthetic contended
// state: `running` jobs occupying the whole machine with staggered
// completions and `queued` jobs from users with distinct decayed usages.
// Arrive replays one arrival of the probe job — the engine's entire
// steady-state hot path.
func newArrivalProbe(queued, running int) *arrivalProbe {
	const systemSize = 1024
	env := &probeEnv{systemSize: systemSize, now: 1 << 20}
	env.fs = fairshare.NewTracker(fairshare.DefaultConfig(), 0)
	if running < 1 {
		running = 1
	}
	nodes := systemSize / running
	if nodes < 1 {
		nodes = 1
	}
	h := NewHybridFST()
	id := job.ID(1)
	for i := 0; i < running; i++ {
		n := nodes
		if i == running-1 {
			n = systemSize - nodes*(running-1) // absorb the remainder
		}
		// Staggered completions: each running job frees its nodes at a
		// distinct future instant, so the availability multiset stays deep.
		j := &job.Job{ID: id, User: i, Submit: 0, Runtime: int64(3600 + 60*i), Estimate: 7200, Nodes: n}
		env.running = append(env.running, sim.RunningJob{Job: j, Start: env.now})
		h.JobStarted(env, j)
		id++
	}
	p := &arrivalProbe{env: env, engine: h}
	for i := 0; i < queued; i++ {
		env.fs.Charge(1000+i, float64(i)*97.0)
		p.queue = append(p.queue, &job.Job{
			ID: id, User: 1000 + i, Submit: int64(i), Runtime: 1800, Estimate: 3600,
			Nodes: 1 + i%64,
		})
		id++
	}
	// The engine keeps its own queue, filled by its arrival hook: announce
	// the standing queue once, after every usage is charged.
	for _, q := range p.queue {
		h.JobArrived(env, q, nil)
	}
	p.arriving = &job.Job{
		ID: id, User: 1000 + queued/2, Submit: env.now, Runtime: 1800, Estimate: 3600,
		Nodes: 32,
	}
	return p
}

// arrivalProbe replays the hybrid engine's per-arrival hot path against a
// fixed contended state.
type arrivalProbe struct {
	env      *probeEnv
	engine   *HybridFST
	queue    []*job.Job
	arriving *job.Job
}

// Arrive runs one JobArrived against the probe state, then takes the
// probe job back out of the engine's queue so every replay sees the same
// standing queue.
func (p *arrivalProbe) Arrive() {
	delete(p.engine.fst, p.arriving.ID) // keep the table size fixed across replays
	p.engine.JobArrived(p.env, p.arriving, nil)
	p.engine.dequeue(p.arriving)
}

// queuedJobs counts the jobs in the engine's FST queue.
func (h *HybridFST) queuedJobs() int {
	n := 0
	for _, g := range h.ties {
		n += len(g.jobs)
	}
	return n
}

// TestHybridFSTArrivalAndStartAllocateNothing: on a warm engine, an
// arrival (key refresh, ahead-set list schedule, insertion) and the job's
// start (removal from its bucket, multiset add) allocate nothing — when
// the arrival joins its user's bucket, when it is a new user tied with a
// standing bucket, and when it is a new user with a usage of its own,
// whose start empties its bucket for the next new user to recycle. The
// completion hook undoes the start's multiset entry, so every run starts
// from the same state.
func TestHybridFSTArrivalAndStartAllocateNothing(t *testing.T) {
	for _, c := range []struct {
		name  string
		user  int
		usage float64
	}{{"own-bucket", -1, 0}, {"tied-new-user", 1 << 20, 0}, {"recycled-bucket", 1 << 20, 12345.5}} {
		p := newArrivalProbe(128, 64)
		h, j := p.engine, p.arriving
		if c.user >= 0 {
			j.User = c.user
			p.env.fs.Charge(c.user, c.usage)
		}
		depth, buckets := h.queuedJobs(), len(h.ties)
		allocs := testing.AllocsPerRun(100, func() {
			delete(h.fst, j.ID)
			h.JobArrived(p.env, j, nil)
			h.JobStarted(p.env, j)
			h.JobCompleted(p.env, j, p.env.now)
			if h.queuedJobs() != depth || len(h.ties) != buckets {
				t.Fatalf("%s: FST queue holds %d jobs in %d buckets after the start, want %d in %d", c.name, h.queuedJobs(), len(h.ties), depth, buckets)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: warm JobArrived+JobStarted allocates %.1f times, want 0", c.name, allocs)
		}
	}
}

// BenchmarkHybridFST measures the engine's per-arrival hot path on a
// contended state: a fully occupied 1024-node machine with a deep queue.
// The op is one JobArrived — steady state must be allocation-free.
func BenchmarkHybridFST(b *testing.B) {
	for _, depth := range []int{16, 128, 512} {
		b.Run(fmt.Sprintf("queue%d", depth), func(b *testing.B) {
			p := newArrivalProbe(depth, 64)
			p.Arrive() // warm the scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Arrive()
			}
		})
	}
}

// BenchmarkHybridFSTReference is the pre-incremental algorithm on the same
// state, for the measurement-plane before/after in docs/PERFORMANCE.md.
func BenchmarkHybridFSTReference(b *testing.B) {
	for _, depth := range []int{16, 128, 512} {
		b.Run(fmt.Sprintf("queue%d", depth), func(b *testing.B) {
			p := newArrivalProbe(depth, 64)
			ref := newReferenceFST()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delete(ref.fst, p.arriving.ID)
				ref.JobArrived(p.env, p.arriving, p.queue)
			}
		})
	}
}
