package metrics

import (
	"sort"

	"fairsched/internal/fairness"
	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// SlowdownBound is the runtime floor of the bounded-slowdown metric (the
// conventional 10 seconds).
const SlowdownBound = 10

// Summary is the complete evaluation of one policy run: every number that
// appears in the paper's Figures 8-19 plus the standard companions.
type Summary struct {
	Policy     string
	SystemSize int
	Jobs       int

	// User metrics (§3.2.1).
	AvgWait            float64
	AvgTurnaround      float64 // Equation 1
	AvgBoundedSlowdown float64
	MedianWait         float64
	MedianTurnaround   float64
	// MedianBoundedSlowdown is the robust central tendency the cross-trace
	// robustness ranking aggregates on: unlike the mean it is insensitive to
	// the handful of pathological slowdowns every real trace contains.
	MedianBoundedSlowdown float64

	// System metrics (§3.2.2).
	Makespan       int64
	Utilization    float64 // Equation 2
	LossOfCapacity float64 // Equation 4

	// Fairness (§4.1, Equation 5). FairnessJobs counts the logical jobs
	// measured (checkpoint chains count once); PercentUnfairLoad is the
	// §4 processor-second-weighted variant of PercentUnfair.
	PercentUnfair     float64
	PercentUnfairLoad float64
	AvgMissTime       float64
	UnfairJobs        int
	FairnessJobs      int
	TotalMissTime     float64

	// Per-width-category breakdowns (Figures 10/12/16/18).
	JobsByWidth    [job.NumWidthCategories]int
	AvgMissByWidth [job.NumWidthCategories]float64
	AvgTATByWidth  [job.NumWidthCategories]float64
	AvgWaitByWidth [job.NumWidthCategories]float64

	// Weekly series (Figure 3), as fractions of weekly capacity.
	WeeklySubmitted   []float64 // work submitted each week
	WeeklyUtilization []float64 // work executed each week
	WeeklyOfferedLoad []float64 // backlog-inclusive queued workload

	// Queues holds one row per declared queue-tree leaf, in queue-path
	// order; empty for flat runs with no queue tagging. Partitions holds
	// one row per partition when the run spans more than one. Both are
	// population extras: they never feed back into the machine-wide scalars
	// above, so a single-partition single-queue topology summarizes
	// byte-identically to the flat run.
	Queues     []QueueSummary
	Partitions []PartitionSummary
}

// QueueSummary is one queue-tree leaf's share of the run: the jobs whose
// users route to the queue, with their wait/turnaround averages and (when
// the cell carries an SLO assignment) the queue's attainment count.
type QueueSummary struct {
	Path          string
	Jobs          int
	Users         int
	AvgWait       float64
	AvgTurnaround float64
	SLOJobs       int // SLO-judged jobs of the queue's users (0 = no assignment)
	SLOAttained   int
}

// AttainPct returns the queue's SLO attainment percentage (0 when no jobs
// were judged).
func (q QueueSummary) AttainPct() float64 {
	if q.SLOJobs == 0 {
		return 0
	}
	return 100 * float64(q.SLOAttained) / float64(q.SLOJobs)
}

// PartitionSummary is one partition's share of a multi-partition run.
// Utilization is the partition-local Equation 2 over the merged run's
// makespan, so the rows of one report share a time denominator.
type PartitionSummary struct {
	Name          string
	Nodes         int
	Jobs          int
	AvgWait       float64
	AvgTurnaround float64
	Utilization   float64
}

// Summarize joins the run result, the FST table and the collector
// integrals into a Summary.
func Summarize(res *sim.Result, fst map[job.ID]int64, col *Collector) *Summary {
	s := &Summary{
		Policy:     res.Policy,
		SystemSize: res.SystemSize,
		Jobs:       len(res.Records),
		Makespan:   res.Makespan,
	}
	var sumWait, sumTAT, sumSlow float64
	var waits, tats, slows []float64
	var tatByWidth, waitByWidth [job.NumWidthCategories]float64
	var usedProcSec float64
	for _, r := range res.Records {
		w := job.WidthCategory(r.Job.Nodes)
		s.JobsByWidth[w]++
		wait := float64(r.Wait())
		tat := float64(r.Turnaround())
		sumWait += wait
		sumTAT += tat
		waits = append(waits, wait)
		tats = append(tats, tat)
		waitByWidth[w] += wait
		tatByWidth[w] += tat
		run := float64(r.Complete - r.Start)
		if run < SlowdownBound {
			run = SlowdownBound
		}
		slow := (wait + run) / run
		sumSlow += slow
		slows = append(slows, slow)
		usedProcSec += float64(r.Job.Nodes) * float64(r.Complete-r.Start)
	}
	if s.Jobs > 0 {
		n := float64(s.Jobs)
		s.AvgWait = sumWait / n
		s.AvgTurnaround = sumTAT / n
		s.AvgBoundedSlowdown = sumSlow / n
		s.MedianWait = median(waits)
		s.MedianTurnaround = median(tats)
		s.MedianBoundedSlowdown = median(slows)
	}
	for w := 0; w < job.NumWidthCategories; w++ {
		if s.JobsByWidth[w] > 0 {
			n := float64(s.JobsByWidth[w])
			s.AvgTATByWidth[w] = tatByWidth[w] / n
			s.AvgWaitByWidth[w] = waitByWidth[w] / n
		}
	}
	if res.Makespan > 0 {
		denom := float64(res.Makespan) * float64(res.SystemSize)
		s.Utilization = usedProcSec / denom
		if col != nil {
			s.LossOfCapacity = col.LostProcSeconds() / denom
		}
	}
	if fst != nil {
		u := fairness.Measure(res.Records, fst)
		s.PercentUnfair = u.PercentUnfair()
		s.PercentUnfairLoad = u.PercentUnfairLoad()
		s.AvgMissTime = u.AvgMissTime()
		s.UnfairJobs = u.UnfairJobs
		s.FairnessJobs = u.Jobs
		s.TotalMissTime = u.TotalMiss
		s.AvgMissByWidth = u.AvgMissTimeByWidth()
	}
	if col != nil {
		s.WeeklySubmitted = fractionOfCapacity(col.WeeklySubmitted(), res.SystemSize)
		s.WeeklyUtilization = fractionOfCapacity(col.WeeklyExecuted(), res.SystemSize)
		s.WeeklyOfferedLoad = offeredLoad(s.WeeklySubmitted, s.WeeklyUtilization)
	}
	return s
}

func fractionOfCapacity(procSec []float64, systemSize int) []float64 {
	cap := float64(systemSize) * WeekSeconds
	out := make([]float64, len(procSec))
	for i, v := range procSec {
		out[i] = v / cap
	}
	return out
}

// offeredLoad converts the submitted series into Figure 3's "amount of
// queued workload over time": the work carried over from previous weeks
// (submitted but not yet executed) plus the week's own submissions, as a
// fraction of weekly capacity.
func offeredLoad(submitted, executed []float64) []float64 {
	out := make([]float64, len(submitted))
	backlog := 0.0
	for i := range submitted {
		out[i] = backlog + submitted[i]
		exec := 0.0
		if i < len(executed) {
			exec = executed[i]
		}
		backlog += submitted[i] - exec
		if backlog < 0 {
			backlog = 0
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
