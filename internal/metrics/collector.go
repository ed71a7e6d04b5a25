// Package metrics computes the paper's standard user and system metrics
// (§3.2): wait time, turnaround time (Equation 1), bounded slowdown,
// utilization (Equation 2), makespan (Equation 3) and loss of capacity
// (Equation 4), plus the weekly offered-load/utilization series of Figure 3
// and the per-width-category breakdowns of Figures 10/12/16/18.
package metrics

import (
	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// WeekSeconds is the bin width of the weekly load series.
const WeekSeconds = 7 * 24 * 3600

// Collector is a simulation observer that integrates the time-dependent
// quantities a post-run summary cannot reconstruct from job records alone:
// the loss-of-capacity numerator and the weekly submitted/executed
// processor-second series.
type Collector struct {
	sim.BaseObserver
	systemSize int

	// lostProcSec integrates min(queued demand, idle nodes) dt — the
	// numerator of Equation 4.
	lostProcSec float64
	// busyProcSec integrates nodes-in-use dt.
	busyProcSec float64
	// weeklySubmitted[w] sums Nodes*Runtime of jobs submitted in week w.
	weeklySubmitted []float64
	// weeklyExecuted[w] integrates nodes-in-use dt within week w.
	weeklyExecuted []float64
}

// NewCollector creates a collector for a system of the given size.
func NewCollector(systemSize int) *Collector {
	return &Collector{systemSize: systemSize}
}

// SystemSize returns the configured node count.
func (c *Collector) SystemSize() int { return c.systemSize }

func (c *Collector) week(t int64) int {
	if t < 0 {
		return 0
	}
	return int(t / WeekSeconds)
}

func (c *Collector) growWeeks(w int) {
	for len(c.weeklySubmitted) <= w {
		c.weeklySubmitted = append(c.weeklySubmitted, 0)
	}
	for len(c.weeklyExecuted) <= w {
		c.weeklyExecuted = append(c.weeklyExecuted, 0)
	}
}

// JobArrived implements sim.Observer.
func (c *Collector) JobArrived(_ sim.Env, j *job.Job, _ []*job.Job) {
	w := c.week(j.Submit)
	c.growWeeks(w)
	c.weeklySubmitted[w] += float64(j.ProcSeconds())
}

// Interval implements sim.Observer.
func (c *Collector) Interval(from, to int64, usedNodes, queuedNodes int) {
	dt := to - from
	if dt <= 0 {
		return
	}
	c.busyProcSec += float64(usedNodes) * float64(dt)
	idle := c.systemSize - usedNodes
	lost := queuedNodes
	if idle < lost {
		lost = idle
	}
	if lost > 0 {
		c.lostProcSec += float64(lost) * float64(dt)
	}
	// Split the executed processor-seconds across week bins.
	t := from
	for t < to {
		w := c.week(t)
		end := int64(w+1) * WeekSeconds
		if end > to {
			end = to
		}
		c.growWeeks(w)
		c.weeklyExecuted[w] += float64(usedNodes) * float64(end-t)
		t = end
	}
}

// Merge folds another collector's integrals into c. Partitioned runs give
// each partition its own collector (sized to the partition, so Equation 4's
// min(queued, idle) sees only nodes the queued jobs could actually use) and
// merge them into a fresh collector sized to the whole machine before
// summarizing. Weekly bins combine exactly; the merge is commutative up to
// float addition order, so callers must merge in a fixed (declaration)
// order to keep reports byte-identical.
func (c *Collector) Merge(o *Collector) {
	c.lostProcSec += o.lostProcSec
	c.busyProcSec += o.busyProcSec
	if n := len(o.weeklySubmitted); n > 0 {
		c.growWeeks(n - 1)
	}
	for w, v := range o.weeklySubmitted {
		c.weeklySubmitted[w] += v
	}
	for w, v := range o.weeklyExecuted {
		c.weeklyExecuted[w] += v
	}
}

// LostProcSeconds returns the Equation 4 numerator.
func (c *Collector) LostProcSeconds() float64 { return c.lostProcSec }

// Weeks returns the number of weekly bins observed.
func (c *Collector) Weeks() int { return len(c.weeklySubmitted) }

// WeeklySubmitted returns processor-seconds submitted per week.
func (c *Collector) WeeklySubmitted() []float64 { return c.weeklySubmitted }

// WeeklyExecuted returns processor-seconds executed per week.
func (c *Collector) WeeklyExecuted() []float64 { return c.weeklyExecuted }
