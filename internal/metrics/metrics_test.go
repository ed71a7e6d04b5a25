package metrics

import (
	"math"
	"testing"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCollectorLossOfCapacity(t *testing.T) {
	c := NewCollector(10)
	// 100s with 6 nodes busy, 8 nodes demanded by the queue:
	// lost = min(10-6, 8) = 4 -> 400 proc-sec.
	c.Interval(0, 100, 6, 8)
	if got := c.LostProcSeconds(); !almost(got, 400) {
		t.Fatalf("lost = %v, want 400", got)
	}
	// Queue demand smaller than idle: lost = queued.
	c.Interval(100, 200, 6, 2)
	if got := c.LostProcSeconds(); !almost(got, 600) {
		t.Fatalf("lost = %v, want 600", got)
	}
	// Busy system, deep queue: nothing lost.
	c.Interval(200, 300, 10, 50)
	if got := c.LostProcSeconds(); !almost(got, 600) {
		t.Fatalf("lost = %v, want unchanged 600", got)
	}
	// Idle system, empty queue: nothing lost.
	c.Interval(300, 400, 0, 0)
	if got := c.LostProcSeconds(); !almost(got, 600) {
		t.Fatalf("lost = %v, want unchanged 600", got)
	}
	if got := c.BusyProcSeconds(); !almost(got, 600+600+1000) {
		t.Fatalf("busy = %v", got)
	}
}

func TestCollectorWeeklySplit(t *testing.T) {
	c := NewCollector(10)
	// An interval spanning a week boundary splits its executed work.
	start := int64(WeekSeconds - 100)
	c.Interval(start, start+300, 5, 0)
	weeks := c.WeeklyExecuted()
	if len(weeks) < 2 {
		t.Fatalf("weeks = %d", len(weeks))
	}
	if !almost(weeks[0], 500) { // 100s * 5 nodes
		t.Fatalf("week 0 executed = %v, want 500", weeks[0])
	}
	if !almost(weeks[1], 1000) { // 200s * 5 nodes
		t.Fatalf("week 1 executed = %v, want 1000", weeks[1])
	}
}

func TestCollectorWeeklySubmitted(t *testing.T) {
	c := NewCollector(10)
	env := &fakeEnv{}
	c.JobArrived(env, &job.Job{ID: 1, Submit: 10, Nodes: 4, Runtime: 100}, nil)
	c.JobArrived(env, &job.Job{ID: 2, Submit: WeekSeconds + 5, Nodes: 2, Runtime: 50}, nil)
	sub := c.WeeklySubmitted()
	if !almost(sub[0], 400) || !almost(sub[1], 100) {
		t.Fatalf("weekly submitted = %v", sub)
	}
}

type fakeEnv struct{ now int64 }

func (f *fakeEnv) Now() int64                    { return f.now }
func (f *fakeEnv) SystemSize() int               { return 10 }
func (f *fakeEnv) FreeNodes() int                { return 10 }
func (f *fakeEnv) Running() []sim.RunningJob     { return nil }
func (f *fakeEnv) Fairshare() *fairshare.Tracker { return nil }
func (f *fakeEnv) Availability() *profile.Profile {
	return profile.New(f.now, 10, 10)
}
func (f *fakeEnv) Start(*job.Job) error { return nil }

var _ sim.Env = (*fakeEnv)(nil)

func TestSummarizeUserMetrics(t *testing.T) {
	res := &sim.Result{
		Policy:     "test",
		SystemSize: 10,
		Makespan:   200,
		Records: []*sim.Record{
			{Job: &job.Job{ID: 1, Nodes: 5, Runtime: 100}, Submit: 0, Start: 0, Complete: 100, Finished: true},
			{Job: &job.Job{ID: 2, Nodes: 5, Runtime: 100}, Submit: 0, Start: 100, Complete: 200, Finished: true},
		},
	}
	s := Summarize(res, nil, nil)
	if !almost(s.AvgWait, 50) {
		t.Errorf("avg wait = %v", s.AvgWait)
	}
	if !almost(s.AvgTurnaround, 150) {
		t.Errorf("avg turnaround = %v", s.AvgTurnaround)
	}
	if !almost(s.MedianTurnaround, 150) {
		t.Errorf("median turnaround = %v", s.MedianTurnaround)
	}
	// Slowdown: job1 = (0+100)/100 = 1; job2 = (100+100)/100 = 2.
	if !almost(s.AvgBoundedSlowdown, 1.5) {
		t.Errorf("slowdown = %v", s.AvgBoundedSlowdown)
	}
	// Utilization: 1000 proc-sec over 200s * 10 nodes = 0.5 (Equation 2).
	if !almost(s.Utilization, 0.5) {
		t.Errorf("utilization = %v", s.Utilization)
	}
	if s.JobsByWidth[3] != 2 {
		t.Errorf("width category count = %v", s.JobsByWidth)
	}
	if !almost(s.AvgTATByWidth[3], 150) {
		t.Errorf("width TAT = %v", s.AvgTATByWidth[3])
	}
}

func TestSummarizeBoundedSlowdownFloor(t *testing.T) {
	res := &sim.Result{
		SystemSize: 10, Makespan: 100,
		Records: []*sim.Record{
			// 1s job waiting 10s: bounded slowdown uses the 10s floor:
			// (10+10)/10 = 2, not (10+1)/1 = 11.
			{Job: &job.Job{ID: 1, Nodes: 1, Runtime: 1}, Submit: 0, Start: 10, Complete: 11, Finished: true},
		},
	}
	s := Summarize(res, nil, nil)
	if !almost(s.AvgBoundedSlowdown, 2) {
		t.Fatalf("bounded slowdown = %v, want 2", s.AvgBoundedSlowdown)
	}
}

func TestSummarizeWithFSTAndCollector(t *testing.T) {
	col := NewCollector(10)
	col.Interval(0, 100, 5, 10) // lost 500
	res := &sim.Result{
		SystemSize: 10, Makespan: 100,
		Records: []*sim.Record{
			{Job: &job.Job{ID: 1, Nodes: 5, Runtime: 100}, Submit: 0, Start: 50, Complete: 150, Finished: true},
		},
	}
	fst := map[job.ID]int64{1: 10}
	s := Summarize(res, fst, col)
	if !almost(s.LossOfCapacity, 0.5) {
		t.Errorf("LOC = %v, want 0.5", s.LossOfCapacity)
	}
	if s.UnfairJobs != 1 || !almost(s.AvgMissTime, 40) {
		t.Errorf("unfair=%d miss=%v", s.UnfairJobs, s.AvgMissTime)
	}
	if s.FairnessJobs != 1 {
		t.Errorf("fairness jobs = %d", s.FairnessJobs)
	}
}

func TestOfferedLoadCarriesBacklog(t *testing.T) {
	submitted := []float64{1.5, 0.2, 0.1}
	executed := []float64{0.9, 0.6, 0.3}
	got := offeredLoad(submitted, executed)
	// Week 0: no backlog + 1.5 = 1.5; backlog becomes 0.6.
	// Week 1: 0.6 + 0.2 = 0.8; backlog becomes 0.2.
	// Week 2: 0.2 + 0.1 = 0.3.
	want := []float64{1.5, 0.8, 0.3}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Fatalf("offered[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOfferedLoadClampsNegativeBacklog(t *testing.T) {
	// Executing more than submitted (backlog from nowhere) must not go
	// negative.
	got := offeredLoad([]float64{0.5, 0.5}, []float64{0.9, 0.1})
	if !almost(got[1], 0.5) {
		t.Fatalf("offered[1] = %v, want 0.5", got[1])
	}
}

func TestFractionOfCapacity(t *testing.T) {
	got := fractionOfCapacity([]float64{float64(10 * WeekSeconds)}, 10)
	if !almost(got[0], 1) {
		t.Fatalf("fraction = %v, want 1", got[0])
	}
}

func TestMedianHelper(t *testing.T) {
	if !almost(median([]float64{3, 1, 2}), 2) {
		t.Error("odd median")
	}
	if !almost(median([]float64{4, 1, 2, 3}), 2.5) {
		t.Error("even median")
	}
	if median(nil) != 0 {
		t.Error("empty median")
	}
}

func TestCollectorEmptySummary(t *testing.T) {
	res := &sim.Result{SystemSize: 10}
	s := Summarize(res, nil, nil)
	if s.Jobs != 0 || s.AvgWait != 0 {
		t.Fatal("empty result should produce zero summary")
	}
}

// BusyProcSeconds returns the integral of nodes-in-use over time.
func (c *Collector) BusyProcSeconds() float64 { return c.busyProcSec }
