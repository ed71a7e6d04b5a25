// Package job defines the parallel job model shared by the simulator,
// schedulers, metrics and workload generator.
//
// All times are int64 seconds relative to the trace origin (or Unix seconds
// when a trace header supplies an origin). A job is the paper's 2-D
// rectangle: width = Nodes, length = Runtime (actual) or Estimate (the user
// supplied wall-clock limit the scheduler plans with).
package job

import "fmt"

// ID identifies a job within one workload. IDs are positive and unique;
// segments created by max-runtime splitting receive fresh IDs and point back
// to the original via Parent.
type ID int64

// Job is one batch job submission.
type Job struct {
	ID     ID
	User   int // opaque user id, basis of the fairshare priority
	Group  int // opaque group id (carried from/to SWF, not used for policy)
	Submit int64
	// Runtime is the actual execution time in seconds (>= 1). The simulator
	// runs the job for exactly this long.
	Runtime int64
	// Estimate is the user-supplied wall-clock limit in seconds (>= 1).
	// Schedulers plan with it; it may be smaller than Runtime (the CPlant
	// system let jobs overrun when the nodes were not needed).
	Estimate int64
	// Nodes is the number of compute nodes the job occupies (width).
	Nodes int

	// Split metadata (zero values when the job is not a segment).
	Parent   ID  // original job id, 0 if not a segment
	Segment  int // 1-based segment index
	Segments int // total segments of the original job
	// ChainRuntime is the remaining runtime of the whole checkpoint chain
	// including this segment (original runtime minus completed segments).
	// Fairness metrics treat the chain as one logical job that would hold
	// its nodes contiguously in the fair reference schedule.
	ChainRuntime int64
}

// EffectiveRuntime returns the runtime the fair reference schedule charges
// the job for: the remaining chain runtime for a split segment, the plain
// runtime otherwise.
func (j *Job) EffectiveRuntime() int64 {
	if j.ChainRuntime > 0 {
		return j.ChainRuntime
	}
	return j.Runtime
}

// MaxTime is the horizon, in seconds (about 34,800 years), that Validate
// holds Submit, Runtime, Estimate and ChainRuntime to. The engines add
// these times without overflow checks: a reservation is the clock plus the
// estimates of the jobs running or queued ahead of it. With each term at
// most 2^40, fewer than 2^22 (about four million) such jobs sum to under
// 2^62, far from wrapping int64, where one estimate near 2^63 wrapped the
// first sum it entered. The bound also keeps every estimate exact as a
// float64 priority key (2^40 < 2^53).
const MaxTime = 1 << 40

// Validate reports the first structural problem with the job, or nil.
func (j *Job) Validate(systemSize int) error {
	switch {
	case j == nil:
		return fmt.Errorf("job: nil")
	case j.ID <= 0:
		return fmt.Errorf("job %d: non-positive id", j.ID)
	case j.Submit < 0:
		return fmt.Errorf("job %d: negative submit time %d", j.ID, j.Submit)
	case j.Runtime < 1:
		return fmt.Errorf("job %d: runtime %d < 1", j.ID, j.Runtime)
	case j.Estimate < 1:
		return fmt.Errorf("job %d: estimate %d < 1", j.ID, j.Estimate)
	case j.Submit > MaxTime:
		return fmt.Errorf("job %d: submit time %d beyond the %ds horizon", j.ID, j.Submit, MaxTime)
	case j.Runtime > MaxTime:
		return fmt.Errorf("job %d: runtime %d beyond the %ds horizon", j.ID, j.Runtime, MaxTime)
	case j.Estimate > MaxTime:
		return fmt.Errorf("job %d: estimate %d beyond the %ds horizon", j.ID, j.Estimate, MaxTime)
	case j.ChainRuntime > MaxTime:
		return fmt.Errorf("job %d: chain runtime %d beyond the %ds horizon", j.ID, j.ChainRuntime, MaxTime)
	case j.Nodes < 1:
		return fmt.Errorf("job %d: nodes %d < 1", j.ID, j.Nodes)
	case systemSize > 0 && j.Nodes > systemSize:
		return fmt.Errorf("job %d: nodes %d exceed system size %d", j.ID, j.Nodes, systemSize)
	}
	return nil
}

// ProcSeconds returns Nodes * Runtime, the job's area in the 2-D schedule.
func (j *Job) ProcSeconds() int64 { return int64(j.Nodes) * j.Runtime }

// OverestimationFactor returns Estimate/Runtime as a float (Figures 6-7).
func (j *Job) OverestimationFactor() float64 {
	return float64(j.Estimate) / float64(j.Runtime)
}

// Clone returns a copy of the job.
func (j *Job) Clone() *Job {
	c := *j
	return &c
}

func (j *Job) String() string {
	return fmt.Sprintf("job %d (user %d, %d nodes, %ds run, %ds est, submit %d)",
		j.ID, j.User, j.Nodes, j.Runtime, j.Estimate, j.Submit)
}

// ValidateAll validates every job in the slice and checks ID uniqueness.
func ValidateAll(jobs []*Job, systemSize int) error {
	seen := make(map[ID]bool, len(jobs))
	for _, j := range jobs {
		if err := j.Validate(systemSize); err != nil {
			return err
		}
		if seen[j.ID] {
			return fmt.Errorf("job %d: duplicate id", j.ID)
		}
		seen[j.ID] = true
	}
	return nil
}

// MaxNodes returns the widest job's node count, 0 for an empty slice.
func MaxNodes(jobs []*Job) int {
	m := 0
	for _, j := range jobs {
		if j.Nodes > m {
			m = j.Nodes
		}
	}
	return m
}
