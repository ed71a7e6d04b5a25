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

// TestHybridFSTMatchesFromScratchReference: the incremental engine's FST
// table must equal the from-scratch reference's, entry for entry, on calm
// and contended generated workloads across representative policies —
// including checkpoint chains (max-runtime splitting) and wall-clock kills,
// which exercise the multiset's remove path with promised release times
// that were never reached.
func TestHybridFSTMatchesFromScratchReference(t *testing.T) {
	type cfg struct {
		name   string
		sim    sim.Config
		scale  float64
		policy string
	}
	h := int64(3600)
	cases := []cfg{
		{"calm-baseline", sim.Config{SystemSize: 500, Validate: true}, 0.02, "cplant24.nomax.all"},
		{"contended-baseline", sim.Config{SystemSize: 100, Validate: true}, 0.05, "cplant24.nomax.all"},
		{"contended-cons", sim.Config{SystemSize: 100, Validate: true}, 0.05, "cons.nomax"},
		{"contended-consdyn", sim.Config{SystemSize: 100, Validate: true}, 0.05, "consdyn.nomax"},
		{"contended-list", sim.Config{SystemSize: 100, Validate: true}, 0.05, "list.fairshare"},
		{"split-chains", sim.Config{SystemSize: 100, MaxRuntime: 24 * h, Split: sim.SplitChained, Validate: true}, 0.05, "cplant24.72max.all"},
		{"split-upfront", sim.Config{SystemSize: 100, MaxRuntime: 24 * h, Split: sim.SplitUpfront, Validate: true}, 0.05, "cplant24.72max.all"},
		{"kill-always", sim.Config{SystemSize: 100, Kill: sim.KillAlways, Validate: true}, 0.05, "easy.fairshare"},
		{"kill-when-needed", sim.Config{SystemSize: 100, Kill: sim.KillWhenNeeded, Validate: true}, 0.05, "cplant24.nomax.fair"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs, err := workload.Generate(workload.Config{Seed: 7, Scale: tc.scale, SystemSize: tc.sim.SystemSize})
			if err != nil {
				t.Fatal(err)
			}
			inc := NewHybridFST()
			ref := newReferenceFST()
			if _, err := sim.New(tc.sim, sched.MustParse(tc.policy), inc, ref).Run(jobs); err != nil {
				t.Fatal(err)
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
