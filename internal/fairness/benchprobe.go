package fairness

import (
	"runtime"
	"time"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

// probeEnv is a minimal sim.Env for driving the hybrid engine standalone:
// a contended system (every node claimed by staggered running jobs) with a
// deep queue, so one JobArrived exercises the full reference list schedule.
// It backs both BenchmarkHybridFST and cmd/schedbench's fairness-engine
// entries, keeping the two measurements identical by construction.
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

// NewArrivalProbe assembles a hybrid engine against a synthetic contended
// state: `running` jobs occupying the whole machine with staggered
// completions and `queued` jobs from users with distinct decayed usages.
// Probe.Arrive replays one arrival of the probe job — the engine's entire
// steady-state hot path.
func NewArrivalProbe(queued, running int) *ArrivalProbe {
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
	p := &ArrivalProbe{env: env, engine: h}
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

// ArrivalProbe replays the hybrid engine's per-arrival hot path against a
// fixed contended state.
type ArrivalProbe struct {
	env      *probeEnv
	engine   *HybridFST
	queue    []*job.Job
	arriving *job.Job
}

// Arrive runs one JobArrived against the probe state, then takes the
// probe job back out of the engine's queue so every replay sees the same
// standing queue.
func (p *ArrivalProbe) Arrive() {
	delete(p.engine.fst, p.arriving.ID) // keep the table size fixed across replays
	p.engine.JobArrived(p.env, p.arriving, nil)
	p.engine.dequeue(p.arriving)
}

// MeasureArrivalCost times `arrivals` replays of the hot path and reports
// ns/arrival and allocs/arrival — the fairness-engine numbers
// cmd/schedbench packages into BENCH_sched.json.
func MeasureArrivalCost(queued, running, arrivals int) (nsPerArrival, allocsPerArrival float64) {
	p := NewArrivalProbe(queued, running)
	p.Arrive() // warm the scratch buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < arrivals; i++ {
		p.Arrive()
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	n := float64(arrivals)
	return float64(elapsed.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n
}
