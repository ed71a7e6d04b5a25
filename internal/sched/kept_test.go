package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// keptEngines are the disciplines that keep their queue sorted between
// passes under a static order, with and without a starvation component.
var keptEngines = []string{
	"bf=none",
	"bf=easy",
	"bf=noguarantee",
	"bf=depth+depth=3",
	"bf=easy+starve=5m",
	"bf=noguarantee+starve=5m+depth=2",
}

// staticOrders are the orders whose queues stay sorted between passes.
var staticOrders = []string{"fcfs", "sjf", "widest", "narrowest", "edf"}

// keptProbe drives a Composite through a simulation. Before each event it
// may flag one more user at risk (between passes, as the SLO observer
// would have flagged them at a start or completion), and after each event
// it checks that the engine's queue is exactly what a full re-sort would
// give: the main queue equals sort.SliceStable over the comparator oracle,
// and the
// starvation queue is in arrival order.
type keptProbe struct {
	*Composite
	t      *testing.T
	r      *rand.Rand
	risk   riskSet
	users  int
	passes int
	// starvedPasses counts the passes that left a non-empty starvation
	// queue.
	starvedPasses int
}

func (p *keptProbe) flag() {
	if p.r.Intn(6) == 0 {
		p.risk[1+p.r.Intn(p.users)] = true
	}
}

func (p *keptProbe) Arrive(env sim.Env, j *job.Job) {
	p.flag()
	p.Composite.Arrive(env, j)
	p.check(env)
}

func (p *keptProbe) Complete(env sim.Env, j *job.Job) {
	p.flag()
	p.Composite.Complete(env, j)
	p.check(env)
}

func (p *keptProbe) Wake(env sim.Env) {
	p.flag()
	p.Composite.Wake(env)
	p.check(env)
}

func (p *keptProbe) check(env sim.Env) {
	p.t.Helper()
	p.passes++
	var main, starved []*job.Job
	switch e := p.engine.(type) {
	case *listEngine:
		main = e.queue
	case *aggressiveEngine:
		main, starved = e.main, e.starved
	default:
		p.t.Fatalf("%s: unexpected engine %T", p.Name(), e)
	}
	if len(starved) > 0 {
		p.starvedPasses++
	}
	want := slices.Clone(main)
	sort.SliceStable(want, func(i, k int) bool { return lessOracle(p.order, env, want[i], want[k]) })
	if !slices.Equal(main, want) {
		p.t.Fatalf("%s at t=%d (pass %d): queue %v, a re-sort gives %v", p.Name(), env.Now(), p.passes, ids(main), ids(want))
	}
	if !slices.IsSortedFunc(starved, func(a, b *job.Job) int {
		if arrivalLess(a, b) {
			return -1
		}
		return 1
	}) {
		p.t.Fatalf("%s at t=%d: starvation queue %v out of arrival order", p.Name(), env.Now(), ids(starved))
	}
}

// keptWorkload is a contended random workload: heavily tied submits,
// estimates and widths, with under- and over-estimates, so head starts,
// backfill starts, kills and starvation promotions all happen.
func keptWorkload(r *rand.Rand, n, users int) []*job.Job {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		runtime := 1 + 60*r.Int63n(10)
		jobs[i] = &job.Job{
			ID:       job.ID(i + 1),
			User:     1 + r.Intn(users),
			Submit:   30 * r.Int63n(int64(n)+1),
			Runtime:  runtime,
			Estimate: max(1, runtime+60*r.Int63n(5)-60),
			Nodes:    1 + r.Intn(8),
		}
	}
	return jobs
}

// checkKeptQueue runs one random workload under a random static order and
// kept engine, twice on the same Composite (the second run starts from the
// sorted state the first left), with a fresh breach-risk source per run.
// It returns the probe, for its pass counts.
func checkKeptQueue(t *testing.T, r *rand.Rand, n int) *keptProbe {
	t.Helper()
	spec := fmt.Sprintf("order=%s+%s", staticOrders[r.Intn(len(staticOrders))], keptEngines[r.Intn(len(keptEngines))])
	const users = 6
	deadlines := mapDeadlines{}
	for u := 1; u <= users; u++ {
		if w := r.Intn(4); w > 0 {
			deadlines[u] = int64(w) * 120
		}
	}
	p := &keptProbe{Composite: MustParse(spec), t: t, r: r, users: users}
	for range 2 {
		p.risk = riskSet{}
		p.SetSLOContext(deadlines, p.risk)
		jobs := keptWorkload(r, n, users)
		if _, err := sim.New(sim.Config{SystemSize: 8, Kill: sim.KillWhenNeeded, Validate: true}, p).Run(jobs); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	return p
}

// TestKeptQueueMatchesResort is the differential test of the kept-sorted
// queue: across random workloads, orders and engines, with users flagged at
// risk mid-run, every pass leaves the queue a full re-sort would give.
func TestKeptQueueMatchesResort(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	var flagged, starved int
	for range 300 {
		p := checkKeptQueue(t, r, 5+r.Intn(40))
		flagged += p.risk.FlaggedUsers()
		starved += p.starvedPasses
	}
	if flagged == 0 || starved == 0 {
		t.Fatalf("the runs flagged %d users and left a starvation queue after %d passes; want both", flagged, starved)
	}
}
