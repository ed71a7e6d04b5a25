package fairness

import (
	"sort"

	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// Equality implements the resource-equality metric reviewed in §4 (Sabin and
// Sadayappan's second metric, inspired by networking/operational fairness):
// while a job is live (queued or running) it "deserves" 1/N of the machine,
// where N is the number of live jobs; it "receives" its node share while
// running and nothing while queued. The per-job unfairness is the integral
// of the unmet share over the job's lifetime, expressed in processor-seconds
// of the full machine. Unlike FST metrics this does not depend on the
// scheduler in place, so it can compare schedules directly.
type Equality struct {
	sim.BaseObserver
	systemSize int
	live       map[job.ID]*liveJob
	deficit    map[job.ID]float64
	jobs       int
}

type liveJob struct {
	job     *job.Job
	running bool
}

// NewEquality returns an equality observer for a system of the given size.
func NewEquality(systemSize int) *Equality {
	return &Equality{
		systemSize: systemSize,
		live:       make(map[job.ID]*liveJob),
		deficit:    make(map[job.ID]float64),
	}
}

// JobArrived implements sim.Observer.
func (e *Equality) JobArrived(_ sim.Env, j *job.Job, _ []*job.Job) {
	e.live[j.ID] = &liveJob{job: j}
	e.jobs++
}

// JobStarted implements sim.Observer.
func (e *Equality) JobStarted(_ sim.Env, j *job.Job) {
	if l := e.live[j.ID]; l != nil {
		l.running = true
	}
}

// JobCompleted implements sim.Observer.
func (e *Equality) JobCompleted(_ sim.Env, j *job.Job, _ int64) {
	delete(e.live, j.ID)
}

// Interval implements sim.Observer: integrate unmet share over [from, to).
func (e *Equality) Interval(from, to int64, _, _ int) {
	n := len(e.live)
	if n == 0 {
		return
	}
	dt := float64(to - from)
	deserved := 1 / float64(n)
	size := float64(e.systemSize)
	for id, l := range e.live {
		received := 0.0
		if l.running {
			received = float64(l.job.Nodes) / size
		}
		if unmet := deserved - received; unmet > 0 {
			e.deficit[id] += unmet * dt * size // processor-seconds of unmet share
		}
	}
}

// AveragePerJob returns the mean unmet share per submitted job.
func (e *Equality) AveragePerJob() float64 {
	if e.jobs == 0 {
		return 0
	}
	return e.Total() / float64(e.jobs)
}

// Total returns the summed unmet share in processor-seconds. The sum runs in
// ascending job-id order so the floating-point result is deterministic.
func (e *Equality) Total() float64 {
	ids := make([]job.ID, 0, len(e.deficit))
	for id := range e.deficit {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	var t float64
	for _, id := range ids {
		t += e.deficit[id]
	}
	return t
}
