package fairness

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fairsched/internal/job"
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
	sort.SliceStable(order, func(i, k int) bool { return fs.Less(order[i], order[k]) })

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
// restart segments (split or preemption remainders) never enter it.
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
	for _, q := range c.inc.queue {
		if q.job.Segment > 1 {
			c.t.Fatalf("restart segment %d (segment %d) in the FST queue", q.job.ID, q.job.Segment)
		}
		if !want[q.job.ID] {
			c.t.Fatalf("job %d in the FST queue but not queued", q.job.ID)
		}
	}
	if len(c.inc.queue) != len(want) {
		c.t.Fatalf("FST queue holds %d jobs, the policy queue %d first segments", len(c.inc.queue), len(want))
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

// TestHybridFSTArrivalAndStartAllocateNothing: on a warm engine, an
// arrival (queue refresh, ahead-prefix list schedule, insertion) and the
// job's start (removal from mid-queue, multiset add) allocate nothing. The
// completion hook undoes the start's multiset entry, so every run starts
// from the same state.
func TestHybridFSTArrivalAndStartAllocateNothing(t *testing.T) {
	p := NewArrivalProbe(128, 64)
	h, j := p.engine, p.arriving
	depth := len(h.queue)
	allocs := testing.AllocsPerRun(100, func() {
		delete(h.fst, j.ID)
		h.JobArrived(p.env, j, nil)
		h.JobStarted(p.env, j)
		h.JobCompleted(p.env, j, p.env.now)
		if len(h.queue) != depth {
			t.Fatalf("FST queue holds %d jobs after the start, want %d", len(h.queue), depth)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm JobArrived+JobStarted allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkHybridFST measures the engine's per-arrival hot path on a
// contended state: a fully occupied 1024-node machine with a deep queue.
// The op is one JobArrived — steady state must be allocation-free.
func BenchmarkHybridFST(b *testing.B) {
	for _, depth := range []int{16, 128, 512} {
		b.Run(fmt.Sprintf("queue%d", depth), func(b *testing.B) {
			p := NewArrivalProbe(depth, 64)
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
			p := NewArrivalProbe(depth, 64)
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
