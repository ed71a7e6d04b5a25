package sim

import "fairsched/internal/job"

// Maximum-runtime splitting (paper §5.1): when Config.MaxRuntime is set,
// estimates are capped at the limit and jobs running longer are "broken up
// into multiple smaller jobs" of at most MaxRuntime seconds each.
//
// Two submission models are provided:
//
//   - SplitUpfront (the paper's policy): the user submits every chunk at the
//     original submission time; each chunk queues independently. This is the
//     straightforward trace transformation and what the paper's simulations
//     require ("long jobs must be submitted as several individual jobs").
//   - SplitChained (extension): chunk k+1 is submitted the instant chunk k
//     completes, modelling a strict checkpoint/restart dependency. Chained
//     chunks re-enter a deep queue with freshly degraded fairshare priority,
//     which lengthens the original job's span considerably.
//
// Estimates: interior chunks are announced as exactly MaxRuntime (a
// checkpointed chunk has known length); the final chunk keeps whatever
// estimate budget the original had left, so over- and under-estimation
// survive the split.

// SplitMode selects the submission model for split segments.
type SplitMode int

const (
	// SplitUpfront submits every segment at the original submit time — the
	// paper's §5.1 reading ("long jobs must be submitted as several
	// individual jobs"). Default.
	SplitUpfront SplitMode = iota
	// SplitStaggered submits segment k at the original submit time plus
	// (k-1)*MaxRuntime: the user's restart script resubmits each chunk one
	// limit-length later, so chunks queue early without piling up at the
	// original instant or co-running wholesale.
	SplitStaggered
	// SplitChained submits segment k+1 when segment k completes
	// (a strict checkpoint/restart dependency).
	SplitChained
)

func (m SplitMode) String() string {
	switch m {
	case SplitChained:
		return "chained"
	case SplitStaggered:
		return "staggered"
	default:
		return "upfront"
	}
}

// appendSubmissions appends to dst the jobs actually submitted for an
// original workload job under a maximum runtime: the job itself (estimate
// capped if needed), every segment (upfront and staggered modes), or the
// first segment (chained mode).
func (s *Simulator) appendSubmissions(dst []*job.Job, j *job.Job) []*job.Job {
	max := s.cfg.MaxRuntime
	if j.Runtime <= max && j.Estimate <= max {
		return append(dst, j)
	}
	if j.Runtime <= max {
		c := j.Clone()
		c.Estimate = max
		return append(dst, c)
	}
	segments := int((j.Runtime + max - 1) / max)
	if s.cfg.Split == SplitChained {
		return append(dst, s.makeSegment(j, 1, segments))
	}
	for i := 1; i <= segments; i++ {
		seg := s.makeSegment(j, i, segments)
		if s.cfg.Split == SplitStaggered {
			seg.Submit = j.Submit + int64(i-1)*max
		}
		dst = append(dst, seg)
	}
	return dst
}

// nextSegment returns the follow-on segment to submit when seg completes in
// chained mode, or nil.
func (s *Simulator) nextSegment(seg *job.Job) *job.Job {
	if s.cfg.Split != SplitChained {
		return nil
	}
	if seg.Parent == 0 || seg.Segment >= seg.Segments {
		return nil
	}
	orig, ok := s.splitOriginals[seg.Parent]
	if !ok {
		panic("sim: segment without recorded original")
	}
	return s.makeSegment(orig, seg.Segment+1, seg.Segments)
}

// makeSegment builds segment idx (1-based) of an original job being split
// into `segments` parts.
func (s *Simulator) makeSegment(orig *job.Job, idx, segments int) *job.Job {
	max := s.cfg.MaxRuntime
	if s.splitOriginals == nil {
		s.splitOriginals = make(map[job.ID]*job.Job)
	}
	s.splitOriginals[orig.ID] = orig

	done := int64(idx-1) * max
	runtime := orig.Runtime - done
	if runtime > max {
		runtime = max
	}
	est := orig.Estimate - done
	if est < 1 {
		est = 1
	}
	if est > max {
		est = max
	}
	if idx < segments {
		est = max
	}
	seg := &job.Job{
		ID:           s.allocID(),
		User:         orig.User,
		Group:        orig.Group,
		Submit:       orig.Submit,
		Runtime:      runtime,
		Estimate:     est,
		Nodes:        orig.Nodes,
		Parent:       orig.ID,
		Segment:      idx,
		Segments:     segments,
		ChainRuntime: orig.Runtime - done,
	}
	if s.cfg.Split == SplitChained && idx > 1 {
		seg.Submit = s.now
	}
	return seg
}

func (s *Simulator) allocID() job.ID {
	id := s.nextID
	s.nextID++
	return id
}

// SegmentIDBudget returns how many fresh ids a run over workload can
// allocate to split segments under the given maximum-runtime limit: every
// job longer than the limit becomes ceil(runtime/max) segments, each with
// its own id, in every split mode. The budget is exact — never an upper
// bound — because chained chains always reach their last segment: interior
// segments are announced at exactly their runtime (makeSegment pins
// est = max = runtime for idx < segments), so no kill policy can truncate
// them, and their completion always submits the follow-on (a kill would
// too — handleKill resubmits — but only the FINAL segment can ever be
// killed, when the original under-estimated, and it has no follow-on).
// Multi-partition runs use it to carve disjoint Config.FirstSegmentID
// ranges.
func SegmentIDBudget(workload []*job.Job, maxRuntime int64) int64 {
	if maxRuntime <= 0 {
		return 0
	}
	var n int64
	for _, j := range workload {
		if j.Runtime > maxRuntime {
			n += (j.Runtime + maxRuntime - 1) / maxRuntime
		}
	}
	return n
}
