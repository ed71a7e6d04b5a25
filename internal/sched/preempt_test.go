package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// mapDeadlines is a stub DeadlineSource for deadline-trigger tests.
type mapDeadlines map[int]int64

func (m mapDeadlines) WaitTarget(user int) (int64, bool) {
	w, ok := m[user]
	return w, ok
}

func runPreemptable(t *testing.T, pol *Composite, size int, jobs []*job.Job) *sim.Result {
	t.Helper()
	res, err := sim.New(sim.Config{SystemSize: size, Preemptable: true, Validate: true}, pol).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func recordOf(t *testing.T, res *sim.Result, id job.ID) *sim.Record {
	t.Helper()
	for _, r := range res.Records {
		if r.Job.ID == id {
			return r
		}
	}
	t.Fatalf("no record for job %d", id)
	return nil
}

// TestSRPTPreemptsLongJobForShortArrival: the canonical SRPT move. A
// machine-filling long job is checkpointed the moment a much shorter job
// arrives; the remainder resubmits as a chained segment and finishes after
// the short job.
func TestSRPTPreemptsLongJobForShortArrival(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 4},
		{ID: 2, User: 2, Submit: 10, Runtime: 5, Estimate: 5, Nodes: 4},
	}
	res := runPreemptable(t, MustParse("srpt"), 4, jobs)
	if len(res.Records) != 3 {
		t.Fatalf("want 3 records (victim, short job, remainder), got %d", len(res.Records))
	}
	victim := recordOf(t, res, 1)
	if !victim.Preempted || victim.Killed || victim.Complete != 10 {
		t.Errorf("victim record wrong: preempted=%v killed=%v complete=%d", victim.Preempted, victim.Killed, victim.Complete)
	}
	if victim.Job.Parent != 1 || victim.Job.Segment != 1 || victim.Job.Segments != 2 || victim.Job.ChainRuntime != 100 {
		t.Errorf("victim chain metadata wrong: parent=%d seg=%d/%d chain=%d",
			victim.Job.Parent, victim.Job.Segment, victim.Job.Segments, victim.Job.ChainRuntime)
	}
	short := recordOf(t, res, 2)
	if short.Start != 10 || short.Complete != 15 {
		t.Errorf("short job ran [%d,%d], want [10,15]", short.Start, short.Complete)
	}
	rem := recordOf(t, res, 3)
	if rem.Job.Parent != 1 || rem.Job.Segment != 2 || rem.Job.Segments != 2 {
		t.Errorf("remainder chain metadata wrong: parent=%d seg=%d/%d", rem.Job.Parent, rem.Job.Segment, rem.Job.Segments)
	}
	if rem.Job.Submit != 10 || rem.Job.Runtime != 90 || rem.Job.Estimate != 90 || rem.Job.ChainRuntime != 90 {
		t.Errorf("remainder sizing wrong: submit=%d runtime=%d est=%d chain=%d",
			rem.Job.Submit, rem.Job.Runtime, rem.Job.Estimate, rem.Job.ChainRuntime)
	}
	if rem.Start != 15 || rem.Complete != 105 {
		t.Errorf("remainder ran [%d,%d], want [15,105]", rem.Start, rem.Complete)
	}
	if victim.Preempted && rem.Preempted {
		t.Error("remainder must not carry the victim's Preempted flag")
	}
}

// TestPreemptSpecNeedsPreemptableRun: a preempt= spec on a simulator
// whose run does not allow preemption fails at Reset, naming the policy,
// instead of silently never preempting.
func TestPreemptSpecNeedsPreemptableRun(t *testing.T) {
	jobs := []*job.Job{{ID: 1, User: 1, Submit: 0, Runtime: 10, Estimate: 10, Nodes: 4}}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "srpt") || !strings.Contains(msg, "Preemptable") {
			t.Fatalf("want a panic naming srpt and Preemptable, got %q", msg)
		}
	}()
	sim.New(sim.Config{SystemSize: 8}, MustParse("srpt")).Run(jobs)
}

// TestPreemptNeverThrashes: a preempted remainder must not immediately
// preempt the job it was preempted for (the remainder sorts after the
// beneficiary under the queue order, so it is not a beneficiary itself).
func TestPreemptNeverThrashes(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 4},
		{ID: 2, User: 2, Submit: 10, Runtime: 50, Estimate: 50, Nodes: 4},
	}
	res := runPreemptable(t, MustParse("srpt"), 4, jobs)
	preemptions := 0
	for _, r := range res.Records {
		if r.Preempted {
			preemptions++
		}
	}
	if preemptions != 1 {
		t.Fatalf("want exactly 1 preemption, got %d", preemptions)
	}
	// Job 2 (remaining 50 < victim's remaining 90) runs to completion
	// uninterrupted, then the remainder runs.
	if r := recordOf(t, res, 2); r.Start != 10 || r.Complete != 60 {
		t.Errorf("beneficiary ran [%d,%d], want [10,60]", r.Start, r.Complete)
	}
}

// TestPreemptRefusesPartialPreemption: when preempting every eligible
// victim still cannot free enough nodes, nothing is preempted at all.
func TestPreemptRefusesPartialPreemption(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 2},
		{ID: 2, User: 2, Submit: 1, Runtime: 3, Estimate: 3, Nodes: 2},
		{ID: 3, User: 3, Submit: 2, Runtime: 5, Estimate: 5, Nodes: 4},
	}
	res := runPreemptable(t, MustParse("srpt"), 4, jobs)
	// At t=2, job 3 (est 5) outranks job 1 (est 100) but not job 2 (est 3):
	// the only candidate frees 2 of the needed 4 nodes, so no preemption
	// happens. Job 2 completes at 4; only then is preempting job 1 enough.
	j1 := recordOf(t, res, 1)
	if !j1.Preempted || j1.Complete != 4 {
		t.Errorf("job 1: preempted=%v complete=%d, want preemption at t=4 (not t=2)", j1.Preempted, j1.Complete)
	}
	if j2 := recordOf(t, res, 2); j2.Preempted || j2.Complete != 4 {
		t.Errorf("job 2 must finish untouched at 4, got preempted=%v complete=%d", j2.Preempted, j2.Complete)
	}
	if j3 := recordOf(t, res, 3); j3.Start != 4 {
		t.Errorf("job 3 started at %d, want 4", j3.Start)
	}
}

// TestPreemptVictimRules: lowpri checkpoints the worst job under the queue
// order; newest checkpoints the most recently started one.
func TestPreemptVictimRules(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 60, Estimate: 60, Nodes: 2},
		{ID: 2, User: 2, Submit: 1, Runtime: 50, Estimate: 50, Nodes: 2},
		{ID: 3, User: 3, Submit: 10, Runtime: 5, Estimate: 5, Nodes: 2},
	}
	cases := []struct {
		spec    string
		victims []job.ID
	}{
		// lowpri under sjf: job 1 (estimate 60) is the worst running job.
		// Job 2's static estimate (50) ties its own would-be remainder, so
		// no cascade follows and job 2 runs untouched.
		{"order=sjf+bf=easy+preempt=reserve.lowpri", []job.ID{1}},
		// newest: job 2 (started t=1) is checkpointed first; its remainder
		// (41s left) then legitimately outranks job 1 (estimate 60) and
		// preempts it too — the SRPT cascade.
		{"order=sjf+bf=easy+preempt=reserve.newest", []job.ID{1, 2}},
	}
	for _, c := range cases {
		res := runPreemptable(t, MustParse(c.spec), 4, cloneJobs(jobs))
		var got []job.ID
		for _, r := range res.Records {
			if r.Preempted {
				got = append(got, r.Job.ID)
			}
		}
		want := map[job.ID]bool{}
		for _, id := range c.victims {
			want[id] = true
		}
		if len(got) != len(c.victims) {
			t.Errorf("%s: preempted %v, want %v", c.spec, got, c.victims)
			continue
		}
		for _, id := range got {
			if !want[id] {
				t.Errorf("%s: preempted %v, want %v", c.spec, got, c.victims)
			}
		}
	}
}

func cloneJobs(jobs []*job.Job) []*job.Job {
	out := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.Clone()
	}
	return out
}

// TestDeadlineTriggerFiresAtTheDeadline: with preempt=deadline the policy
// wakes at a queued job's SLO deadline and checkpoints running work for it
// — even with no arrival or completion at that instant.
func TestDeadlineTriggerFiresAtTheDeadline(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 9, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 4},
		{ID: 2, User: 1, Submit: 1, Runtime: 5, Estimate: 5, Nodes: 4},
	}
	pol := MustParse("edf.preempt")
	pol.SetSLOContext(mapDeadlines{1: 20}, nil)
	res := runPreemptable(t, pol, 4, jobs)
	// User 1's deadline is submit+20 = 21: job 1 is checkpointed exactly
	// then, not at job 2's arrival (the trigger is the deadline, not the
	// wait itself).
	if v := recordOf(t, res, 1); !v.Preempted || v.Complete != 21 {
		t.Fatalf("victim preempted=%v complete=%d, want preemption at t=21", v.Preempted, v.Complete)
	}
	if r := recordOf(t, res, 2); r.Start != 21 || r.Complete != 26 {
		t.Errorf("deadline job ran [%d,%d], want [21,26]", r.Start, r.Complete)
	}
}

// TestEDFOrderWithoutContextIsFCFS: an edf policy with no SLO context
// degrades to plain FCFS — pinned by schedule-identity with easy.
func TestEDFOrderWithoutContextIsFCFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		jobs := make([]*job.Job, rng.Intn(25)+5)
		for i := range jobs {
			runtime := rng.Int63n(400) + 1
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(4) + 1,
				Submit:   rng.Int63n(1200),
				Runtime:  runtime,
				Estimate: runtime + rng.Int63n(100),
				Nodes:    rng.Intn(size) + 1,
			}
		}
		a, err := sim.New(sim.Config{SystemSize: size}, MustParse("edf")).Run(cloneJobs(jobs))
		if err != nil {
			return false
		}
		b, err := sim.New(sim.Config{SystemSize: size}, MustParse("easy")).Run(cloneJobs(jobs))
		if err != nil {
			return false
		}
		return schedulesEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func schedulesEqual(a, b *sim.Result) bool {
	if len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.Job.ID != rb.Job.ID || ra.Start != rb.Start || ra.Complete != rb.Complete ||
			ra.Killed != rb.Killed || ra.Preempted != rb.Preempted {
			return false
		}
	}
	return true
}

// TestPreemptablePlumbingIsInert: enabling sim.Config.Preemptable for a
// non-preemptive policy changes nothing — the workload clones are
// byte-equivalent and no requeue event ever fires. This is the sim-layer
// half of the preempt=none equivalence bar.
func TestPreemptablePlumbingIsInert(t *testing.T) {
	specs := []string{"easy", "cplant24.nomax.all", "cons.nomax", "list.sjf"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		jobs := make([]*job.Job, rng.Intn(30)+5)
		for i := range jobs {
			runtime := rng.Int63n(400) + 1
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(5) + 1,
				Submit:   rng.Int63n(1500),
				Runtime:  runtime,
				Estimate: runtime + rng.Int63n(200),
				Nodes:    rng.Intn(size) + 1,
			}
		}
		spec := specs[rng.Intn(len(specs))]
		kill := sim.KillPolicy(rng.Intn(3))
		plain, err := sim.New(sim.Config{SystemSize: size, Kill: kill}, MustParse(spec)).Run(cloneJobs(jobs))
		if err != nil {
			return false
		}
		preemptable, err := sim.New(sim.Config{SystemSize: size, Kill: kill, Preemptable: true}, MustParse(spec)).Run(cloneJobs(jobs))
		if err != nil {
			return false
		}
		return schedulesEqual(plain, preemptable)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptiveScheduleIsDeterministic: the same preemptive run twice
// yields identical schedules (requeue events tie-break deterministically).
func TestPreemptiveScheduleIsDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		jobs := make([]*job.Job, rng.Intn(30)+10)
		for i := range jobs {
			runtime := rng.Int63n(400) + 1
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(5) + 1,
				Submit:   rng.Int63n(800),
				Runtime:  runtime,
				Estimate: runtime,
				Nodes:    rng.Intn(size) + 1,
			}
		}
		a, err := sim.New(sim.Config{SystemSize: size, Preemptable: true, Validate: true}, MustParse("srpt")).Run(cloneJobs(jobs))
		if err != nil {
			return false
		}
		b, err := sim.New(sim.Config{SystemSize: size, Preemptable: true, Validate: true}, MustParse("srpt")).Run(cloneJobs(jobs))
		if err != nil {
			return false
		}
		return schedulesEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptChainServiceConserved: across arbitrary preemptive runs, every
// preemption chain's realized service sums to the original runtime, every
// segment runs at least one second, and remainders resubmit at the
// preemption instant.
func TestPreemptChainServiceConserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		jobs := make([]*job.Job, rng.Intn(40)+10)
		for i := range jobs {
			runtime := rng.Int63n(600) + 1
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(6) + 1,
				Submit:   rng.Int63n(1000),
				Runtime:  runtime,
				Estimate: runtime,
				Nodes:    rng.Intn(size) + 1,
			}
		}
		res, err := sim.New(sim.Config{SystemSize: size, Preemptable: true, Validate: true}, MustParse("srpt")).Run(cloneJobs(jobs))
		if err != nil {
			return false
		}
		service := map[job.ID]int64{} // chain head id -> realized service
		for _, r := range res.Records {
			ran := r.Complete - r.Start
			if ran < 1 {
				return false
			}
			if r.Job.Parent != 0 {
				service[r.Job.Parent] += ran
			}
		}
		for id, total := range service {
			var orig *job.Job
			for _, j := range jobs {
				if j.ID == id {
					orig = j
					break
				}
			}
			if orig == nil || total != orig.Runtime {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptNoneCompositesMatchRegistry: the preempt component's
// infrastructure (the order field on Composite, the pass hooks, the
// victim buffer) must be invisible for preempt-less specs — a chain spec
// without preempt= schedules byte-identically to its registry twin across
// calm, contended and chained-split scenarios. This is the sched-layer
// half of the preempt=none equivalence bar (the campaign-level half is
// CI's report diff).
func TestPreemptNoneCompositesMatchRegistry(t *testing.T) {
	pairs := []struct{ registry, chain string }{
		{"easy", "order=fcfs+bf=easy"},
		{"cplant24.nomax.all", "order=fairshare+bf=noguarantee+starve=24h"},
		{"cons.nomax", "order=fairshare+bf=conservative"},
		{"easy.sjf", "order=sjf+bf=easy"},
	}
	scenarios := []struct {
		name string
		cfg  sim.Config
	}{
		{"calm", sim.Config{SystemSize: 32, Validate: true}},
		{"contended", sim.Config{SystemSize: 8, Validate: true}},
		{"split", sim.Config{SystemSize: 8, MaxRuntime: 300, Split: sim.SplitChained, Kill: sim.KillWhenNeeded, Validate: true}},
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs := make([]*job.Job, rng.Intn(30)+8)
		for i := range jobs {
			runtime := rng.Int63n(900) + 1
			est := runtime + rng.Int63n(300)
			if rng.Intn(3) == 0 {
				est = runtime/2 + 1 // under-estimates feed the kill paths
			}
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(5) + 1,
				Submit:   rng.Int63n(2000),
				Runtime:  runtime,
				Estimate: est,
				Nodes:    rng.Intn(8) + 1,
			}
		}
		pair := pairs[seed%int64(len(pairs))]
		for _, sc := range scenarios {
			a, err := sim.New(sc.cfg, MustParse(pair.registry)).Run(cloneJobs(jobs))
			if err != nil {
				t.Fatal(err)
			}
			b, err := sim.New(sc.cfg, MustParse(pair.chain)).Run(cloneJobs(jobs))
			if err != nil {
				t.Fatal(err)
			}
			if !schedulesEqual(a, b) {
				t.Fatalf("seed %d %s: %q and %q diverged", seed, sc.name, pair.registry, pair.chain)
			}
		}
	}
}

// wakeCheck wraps a policy and checks every NextWake answer against a scan
// of the queued jobs' deadlines (the engine's own wake merged with the
// earliest deadline after now).
type wakeCheck struct {
	*Composite
	calls, bad int
	first      string
}

func (w *wakeCheck) NextWake(now int64) (int64, bool) {
	at, ok := w.Composite.NextWake(now)
	wantAt, wantOK := w.engine.nextWake(now)
	for _, j := range w.Queued() {
		if d, dok := w.slo.deadline(j); dok && d > now && (!wantOK || d < wantAt) {
			wantAt, wantOK = d, true
		}
	}
	w.calls++
	if at != wantAt || ok != wantOK {
		if w.bad == 0 {
			w.first = fmt.Sprintf("NextWake(%d) = %d,%v, queue scan %d,%v", now, at, ok, wantAt, wantOK)
		}
		w.bad++
	}
	return at, ok
}

// TestDeadlineWakeMatchesQueueScan: under preempt=deadline, NextWake's
// deadline heap answers exactly what a scan over the queued jobs'
// deadlines answers, at every event of random contended runs, for every
// engine preemption composes with. Each policy runs twice, so the heap
// must also come back empty from Reset.
func TestDeadlineWakeMatchesQueueScan(t *testing.T) {
	specs := []string{
		"edf.preempt",
		"order=fairshare+bf=easy+preempt=deadline.newest",
		"order=sjf+bf=depth+depth=3+preempt=deadline.lowpri",
		"order=fcfs+bf=none+preempt=deadline.lowpri",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		jobs := make([]*job.Job, rng.Intn(40)+10)
		for i := range jobs {
			runtime := rng.Int63n(400) + 1
			jobs[i] = &job.Job{ID: job.ID(i + 1), User: rng.Intn(5) + 1, Submit: rng.Int63n(1500),
				Runtime: runtime, Estimate: runtime + rng.Int63n(100), Nodes: rng.Intn(size) + 1}
		}
		for _, spec := range specs {
			w := &wakeCheck{Composite: MustParse(spec)}
			w.SetSLOContext(mapDeadlines{1: 30, 2: 200, 3: 0, 4: 1000}, nil)
			for run := 0; run < 2; run++ {
				if _, err := sim.New(sim.Config{SystemSize: size, Preemptable: true, Validate: true}, w).Run(cloneJobs(jobs)); err != nil {
					t.Logf("seed %d %s: %v", seed, spec, err)
					return false
				}
			}
			if w.bad > 0 || w.calls == 0 {
				t.Logf("seed %d %s: %d of %d wakes differ; first: %s", seed, spec, w.bad, w.calls, w.first)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
