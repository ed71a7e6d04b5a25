package fairness

import (
	"math"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/sim"
)

func rec(id job.ID, nodes int, runtime, start int64) *sim.Record {
	return &sim.Record{
		Job:   &job.Job{ID: id, Nodes: nodes, Runtime: runtime},
		Start: start,
	}
}

func TestMeasureCountsAndAverages(t *testing.T) {
	records := []*sim.Record{
		rec(1, 1, 100, 50),   // fst 50: fair (exact)
		rec(2, 1, 100, 200),  // fst 100: misses by 100
		rec(3, 600, 100, 10), // fst 20: fair (early start)
		rec(4, 600, 100, 70), // fst 20: misses by 50
	}
	fst := map[job.ID]int64{1: 50, 2: 100, 3: 20, 4: 20}
	u := Measure(records, fst)
	if u.Jobs != 4 || u.UnfairJobs != 2 {
		t.Fatalf("jobs/unfair = %d/%d", u.Jobs, u.UnfairJobs)
	}
	if got := u.PercentUnfair(); got != 50 {
		t.Fatalf("percent unfair = %v", got)
	}
	if got := u.AvgMissTime(); got != (100+50)/4.0 {
		t.Fatalf("avg miss = %v", got)
	}
	byW := u.AvgMissTimeByWidth()
	if byW[0] != 50 { // two 1-node jobs, total miss 100
		t.Fatalf("narrow avg miss = %v", byW[0])
	}
	if byW[10] != 25 { // two 600-node jobs, total miss 50
		t.Fatalf("wide avg miss = %v", byW[10])
	}
}

func TestMeasureLoadWeighted(t *testing.T) {
	records := []*sim.Record{
		rec(1, 1, 100, 200), // unfair, load 100
		rec(2, 99, 100, 10), // fair, load 9900
	}
	fst := map[job.ID]int64{1: 100, 2: 10}
	u := Measure(records, fst)
	if got := u.PercentUnfair(); got != 50 {
		t.Fatalf("count percent = %v", got)
	}
	if got := u.PercentUnfairLoad(); got != 1 {
		t.Fatalf("load percent = %v, want 1", got)
	}
}

func TestMeasureSkipsRecordsWithoutFST(t *testing.T) {
	records := []*sim.Record{rec(1, 1, 100, 200), rec(2, 1, 100, 200)}
	fst := map[job.ID]int64{1: 100}
	u := Measure(records, fst)
	if u.Jobs != 1 {
		t.Fatalf("jobs = %d, want 1 (record 2 has no FST)", u.Jobs)
	}
}

func TestMeasureEmpty(t *testing.T) {
	u := Measure(nil, nil)
	if u.PercentUnfair() != 0 || u.AvgMissTime() != 0 || u.PercentUnfairLoad() != 0 {
		t.Fatal("empty measure should be all zeros")
	}
}

func TestMeasureUsesEffectiveRuntimeForLoad(t *testing.T) {
	r := rec(1, 10, 100, 500)
	r.Job.ChainRuntime = 1000 // chain head: load weighted by the full chain
	fst := map[job.ID]int64{1: 100}
	u := Measure([]*sim.Record{r}, fst)
	if u.TotalLoad != 10*1000 {
		t.Fatalf("total load = %v, want 10000", u.TotalLoad)
	}
}

func TestConsPEmptySystem(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 900, Nodes: 4},
		{ID: 2, User: 2, Submit: 10, Runtime: 100, Estimate: 900, Nodes: 4},
	}
	fst, err := ConsP(jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fst[1] != 0 || fst[2] != 10 {
		t.Fatalf("fst = %v", fst)
	}
}

func TestConsPPacksWithPerfectEstimates(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 6},
		{ID: 2, User: 2, Submit: 5, Runtime: 50, Estimate: 50, Nodes: 6},  // waits for 1
		{ID: 3, User: 3, Submit: 10, Runtime: 90, Estimate: 90, Nodes: 2}, // backfills beside 1
	}
	fst, err := ConsP(jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fst[1] != 0 || fst[2] != 100 || fst[3] != 10 {
		t.Fatalf("fst = %v", fst)
	}
}

func TestConsPRejectsImpossibleJobs(t *testing.T) {
	jobs := []*job.Job{{ID: 1, User: 1, Submit: 0, Runtime: 1, Estimate: 1, Nodes: 10}}
	if _, err := ConsP(jobs, 4); err == nil {
		t.Fatal("too-wide job accepted")
	}
	if _, err := ConsP(nil, 0); err == nil {
		t.Fatal("zero system size accepted")
	}
}

func TestSabinLastJobMatchesActualStart(t *testing.T) {
	// A toy StartsFunc: strict FCFS on 8 nodes via ConsP with perfect
	// estimates is deterministic, and for the LAST job (no later arrivals)
	// the Sabin FST must equal its start in the full schedule.
	full := func(jobs []*job.Job) (map[job.ID]int64, error) { return ConsP(jobs, 8) }
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 6},
		{ID: 2, User: 2, Submit: 5, Runtime: 50, Estimate: 50, Nodes: 6},
		{ID: 3, User: 3, Submit: 10, Runtime: 90, Estimate: 90, Nodes: 2},
	}
	fst, err := Sabin(full, jobs)
	if err != nil {
		t.Fatal(err)
	}
	fullStarts, _ := full(jobs)
	// Job 3 is the last arrival: truncation changes nothing.
	if fst[3] != fullStarts[3] {
		t.Fatalf("sabin fst %d != full start %d", fst[3], fullStarts[3])
	}
	// Job 1 saw no queue at all.
	if fst[1] != 0 {
		t.Fatalf("job 1 sabin fst = %d", fst[1])
	}
}

func TestSabinPropagatesRunnerErrors(t *testing.T) {
	bad := func([]*job.Job) (map[job.ID]int64, error) { return nil, errTest }
	if _, err := Sabin(bad, []*job.Job{{ID: 1}}); err == nil {
		t.Fatal("runner error swallowed")
	}
	missing := func([]*job.Job) (map[job.ID]int64, error) { return map[job.ID]int64{}, nil }
	if _, err := Sabin(missing, []*job.Job{{ID: 1}}); err == nil {
		t.Fatal("missing start accepted")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

func TestEqualityIntegratesUnmetShare(t *testing.T) {
	e := NewEquality(10)
	j1 := &job.Job{ID: 1, Nodes: 5}
	j2 := &job.Job{ID: 2, Nodes: 2}
	e.JobArrived(nil, j1, nil)
	e.JobArrived(nil, j2, nil)
	e.JobStarted(nil, j1)
	// Two live jobs for 100s: each deserves 1/2 of 10 nodes = 5 nodes.
	// j1 runs on 5 (unmet 0); j2 queued (unmet 5 nodes * 100s = 500).
	e.Interval(0, 100, 5, 2)
	if got := e.Deficit(1); got != 0 {
		t.Fatalf("running job at its share has deficit %v", got)
	}
	if got := e.Deficit(2); math.Abs(got-500) > 1e-9 {
		t.Fatalf("queued job deficit = %v, want 500", got)
	}
	e.JobCompleted(nil, j1, 0)
	// One live job deserving everything, receiving nothing while queued.
	e.Interval(100, 110, 0, 2)
	if got := e.Deficit(2); math.Abs(got-600) > 1e-9 {
		t.Fatalf("deficit after second interval = %v, want 600", got)
	}
	if got := e.Total(); math.Abs(got-600) > 1e-9 {
		t.Fatalf("total = %v", got)
	}
	if got := e.AveragePerJob(); math.Abs(got-300) > 1e-9 {
		t.Fatalf("average = %v", got)
	}
}

func TestEqualityEmptyIntervals(t *testing.T) {
	e := NewEquality(10)
	e.Interval(0, 100, 0, 0) // no live jobs: no-op
	if e.Total() != 0 {
		t.Fatal("deficit accrued with no live jobs")
	}
}

// Deficit returns a job's accumulated unmet share in processor-seconds.
func (e *Equality) Deficit(id job.ID) float64 { return e.deficit[id] }
