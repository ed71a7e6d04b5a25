package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"fairsched/internal/eventq"
	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
)

// Event kinds on the future event list.
const (
	evArrival = iota
	evCompletion
	evWake
	evWCLCheck
	evRequeue
)

// Same-instant event priorities: completions release nodes and must be
// observed by every other event at that time, wall-clock-limit checks come
// next, then arrivals, then preemption requeues (a checkpointed remainder
// re-enters the queue after the regular submissions of the same instant),
// then wake-ups. Requeue events exist only in preemptable runs, so the
// non-preemptive event order is untouched.
func eventPrio(kind int) int {
	switch kind {
	case evCompletion:
		return 0
	case evWCLCheck:
		return 1
	case evArrival:
		return 2
	case evRequeue:
		return 3
	default:
		return 4
	}
}

// evPayload is the typed event payload: the job for arrivals, completions
// and wall-clock-limit checks; the wake version for wake events. A concrete
// struct instead of interface{} keeps the event list allocation-free —
// boxing the growing wake version into an interface heap-allocates on every
// reschedule, and every pop would pay a type assertion.
type evPayload struct {
	job  *job.Job
	wake int64
}

// Simulator executes one policy over one workload. Create with New, run with
// Run; a Simulator is single-use.
type Simulator struct {
	cfg       Config
	policy    Policy
	observers []Observer

	q       eventq.Queue[evPayload]
	now     int64
	used    int
	running []RunningJob // start order
	fs      *fairshare.Tracker
	// records indexes every record by job id — a dense slice for the
	// common dense id space, a map for sparse ones (see recordIndex).
	records recordIndex
	order   []*Record // submit order as processed
	nextID  job.ID    // id allocator for split segments
	// splitOriginals maps an original job id to the original job while its
	// segment chain is in flight.
	splitOriginals map[job.ID]*job.Job
	wakeVer        int64 // current wake event version; older wakes are stale
	// pendingWake/pendingWakeOK describe the currently valid wake event on
	// the list, so rescheduleWake can skip re-pushing an identical wake
	// (the dominant case: the next reservation or promotion instant rarely
	// moves between consecutive events).
	pendingWake   int64
	pendingWakeOK bool
	pendingReal   int // pending arrival/completion/kill-check events
	events        int64
	inEvent       bool // guards Env.Start against use outside policy callbacks

	// Reused per-event scratch buffers (hot path: one advanceTo per distinct
	// event time, one completion batch per completion instant).
	batchBuf []*job.Job

	// queuedNodes tracks the total nodes requested by queued jobs
	// (arrivals minus starts), so advanceTo does not walk the policy's
	// queue at every event.
	queuedNodes int

	// avail is the shared availability profile handed out by Availability():
	// rebuilt lazily (into the same backing array) whenever the running set
	// or the clock has changed since it was last built.
	avail      profile.Profile
	availDirty bool
	availInit  bool
	// byRelease is the running set ordered by promised release time. The
	// first Availability call builds it (availInit); from then on Start,
	// release and Preempt keep it sorted, so runs whose policy never reads
	// the profile never pay for it. An entry's until is the job's
	// EstimatedCompletion as of some earlier instant, which stays exact
	// while it lies in the future; Availability re-derives the entries the
	// clock has reached.
	byRelease []pendingRelease
	// holds is Availability's reused scratch: byRelease as profile holds,
	// already in ResetHolds' order.
	holds []profile.Hold
}

// pendingRelease is one byRelease entry: a running job and its promised
// release time.
type pendingRelease struct {
	until int64
	run   RunningJob
}

// New creates a simulator for the given configuration and policy.
func New(cfg Config, pol Policy, observers ...Observer) *Simulator {
	return &Simulator{
		cfg:       cfg.withDefaults(),
		policy:    pol,
		observers: observers,
		// records is allocated in Run, sized to the workload.
	}
}

// Now implements Env.
func (s *Simulator) Now() int64 { return s.now }

// SystemSize implements Env.
func (s *Simulator) SystemSize() int { return s.cfg.SystemSize }

// FreeNodes implements Env.
func (s *Simulator) FreeNodes() int { return s.cfg.SystemSize - s.used }

// Running implements Env.
func (s *Simulator) Running() []RunningJob { return s.running }

// Fairshare implements Env.
func (s *Simulator) Fairshare() *fairshare.Tracker { return s.fs }

// Availability implements Env: the free-capacity profile implied by the
// running jobs, built at most once per scheduling pass. Every policy
// component in that pass (reservation search, backfill check, starvation
// reservation) reads the same profile instead of re-deriving release times
// from the running set; Start and the advancing clock invalidate it.
func (s *Simulator) Availability() *profile.Profile {
	if !s.availInit || s.availDirty {
		if !s.availInit {
			s.byRelease = s.byRelease[:0]
			for _, r := range s.running {
				s.byRelease = append(s.byRelease, pendingRelease{until: r.EstimatedCompletion(s.now), run: r})
			}
			slices.SortFunc(s.byRelease, func(a, b pendingRelease) int { return cmp.Compare(a.until, b.until) })
		} else {
			s.refreshOverruns()
		}
		s.holds = s.holds[:0]
		for _, p := range s.byRelease {
			s.holds = append(s.holds, profile.Hold{Until: p.until, Nodes: p.run.Job.Nodes})
		}
		if err := s.avail.ResetHolds(s.now, s.cfg.SystemSize, s.holds); err != nil {
			// Running jobs always fit: they were started within capacity.
			panic(fmt.Sprintf("sim: availability occupancy: %v", err))
		}
		s.availInit = true
		s.availDirty = false
	}
	return &s.avail
}

// refreshOverruns re-derives the promised release of every byRelease entry
// the clock has reached — a job running past its estimate, whose release
// backs off (EstimatedCompletion) — and moves it to its sorted place. A
// release still in the future needs nothing: EstimatedCompletion only
// changes when the clock crosses it.
func (s *Simulator) refreshOverruns() {
	b := s.byRelease
	m := 0
	for m < len(b) && b[m].until <= s.now {
		m++
	}
	// b[m:] is sorted; insert the refreshed entries from the back, so the
	// tail behind each one is sorted when it moves.
	for i := m - 1; i >= 0; i-- {
		p := b[i]
		p.until = p.run.EstimatedCompletion(s.now)
		k := sort.Search(len(b)-i-1, func(k int) bool { return b[i+1+k].until >= p.until })
		copy(b[i:i+k], b[i+1:i+1+k])
		b[i+k] = p
	}
}

// trackStart adds a just-started job to byRelease, once the index exists.
func (s *Simulator) trackStart(r RunningJob) {
	if !s.availInit {
		return
	}
	until := r.EstimatedCompletion(s.now)
	i := sort.Search(len(s.byRelease), func(i int) bool { return s.byRelease[i].until > until })
	s.byRelease = slices.Insert(s.byRelease, i, pendingRelease{until: until, run: r})
}

// untrack removes a job leaving the running set from byRelease, once the
// index exists.
func (s *Simulator) untrack(id job.ID) {
	if !s.availInit {
		return
	}
	for i, p := range s.byRelease {
		if p.run.Job.ID == id {
			s.byRelease = slices.Delete(s.byRelease, i, i+1)
			return
		}
	}
}

// Start implements Env: a policy launches a queued job now.
func (s *Simulator) Start(j *job.Job) error {
	if !s.inEvent {
		return fmt.Errorf("sim: Start(%d) outside a scheduling event", j.ID)
	}
	rec := s.records.get(j.ID)
	if rec == nil {
		return fmt.Errorf("sim: Start(%d): job never arrived", j.ID)
	}
	if rec.Started {
		return fmt.Errorf("sim: Start(%d): already started", j.ID)
	}
	if j.Nodes > s.FreeNodes() {
		return fmt.Errorf("sim: Start(%d): needs %d nodes, only %d free", j.ID, j.Nodes, s.FreeNodes())
	}
	rec.Started = true
	rec.Start = s.now
	s.used += j.Nodes
	s.queuedNodes -= j.Nodes
	s.running = append(s.running, RunningJob{Job: j, Start: s.now})
	s.trackStart(s.running[len(s.running)-1])
	s.fs.AddRunning(j.User, j.Nodes)
	s.availDirty = true
	runtime := j.Runtime
	if s.cfg.Kill == KillAlways && j.Estimate < runtime {
		runtime = j.Estimate
		rec.Killed = true
	}
	s.pushJob(s.now+runtime, evCompletion, j)
	s.pendingReal++
	if s.cfg.Kill == KillWhenNeeded && j.Estimate < j.Runtime {
		s.pushJob(s.now+j.Estimate, evWCLCheck, j)
		s.pendingReal++
	}
	for _, o := range s.observers {
		o.JobStarted(s, j)
	}
	return nil
}

// pushJob enqueues a job-carrying event of the given kind.
func (s *Simulator) pushJob(t int64, kind int, j *job.Job) { s.q.Push(jobEvent(t, kind, j)) }

// jobEvent is the job-carrying event of the given kind at time t.
func jobEvent(t int64, kind int, j *job.Job) eventq.Event[evPayload] {
	return eventq.Event[evPayload]{Time: t, Prio: eventPrio(kind), Kind: kind, Payload: evPayload{job: j}}
}

// runningIndex locates a job in the running set, -1 if not running. The
// running set is in start order, so the job's record names the instant to
// binary-search for; only the jobs started at that instant are scanned.
func (s *Simulator) runningIndex(id job.ID) int {
	rec := s.records.get(id)
	if rec == nil || !rec.Started || rec.Finished {
		return -1
	}
	i, _ := slices.BinarySearchFunc(s.running, rec.Start, func(r RunningJob, t int64) int { return cmp.Compare(r.Start, t) })
	for ; i < len(s.running) && s.running[i].Start == rec.Start; i++ {
		if s.running[i].Job.ID == id {
			return i
		}
	}
	return -1
}

// scheduledEnd returns when the running job will actually leave the
// machine: start + runtime, truncated to the estimate under KillAlways
// (Start scheduled the truncated completion directly).
func (s *Simulator) scheduledEnd(r RunningJob) int64 {
	runtime := r.Job.Runtime
	if s.cfg.Kill == KillAlways && r.Job.Estimate < runtime {
		runtime = r.Job.Estimate
	}
	return r.Start + runtime
}

// Preemptable implements Preempter: the run allows preemption when
// Config.Preemptable is set.
func (s *Simulator) Preemptable() bool { return s.cfg.Preemptable }

// CanPreempt implements Preempter: j is preemptable when the run allows
// preemption, j is running with at least one second of realized service
// (a checkpoint needs something to save) and at least one second of
// service left before its scheduled end (checkpointing a job in its final
// second is pointless — the remainder would be empty).
func (s *Simulator) CanPreempt(j *job.Job) bool {
	if !s.cfg.Preemptable || !s.inEvent {
		return false
	}
	idx := s.runningIndex(j.ID)
	if idx < 0 {
		return false
	}
	r := s.running[idx]
	return s.now-r.Start >= 1 && s.scheduledEnd(r)-s.now >= 1
}

// Preempt implements Preempter: checkpoint a running job at the current
// instant and resubmit its remainder as a chained segment. The job's record
// is finalized as preempted (its realized service so far), its chain
// metadata is extended (ChainRuntime set so fairness and chained-SLO
// accounting price the chain as one logical job), observers see a regular
// JobCompleted, and the remainder — a fresh job carrying the next segment
// index, the remaining runtime and the remaining estimate budget — arrives
// via a same-instant requeue event, after the instant's regular arrivals.
// The checkpoint cost model is pure requeue delay: the remainder pays queue
// wait (and the chained-SLO judgment prices it) but no explicit
// checkpoint/restore I/O time is added (DESIGN.md §16).
//
// Only policies drive Preempt, from inside a scheduling callback, and only
// when Config.Preemptable is set (the simulator then runs on private clones
// of the workload jobs, so the chain-metadata mutation never leaks into
// job slices shared across concurrent runs).
func (s *Simulator) Preempt(j *job.Job) error {
	if !s.cfg.Preemptable {
		return fmt.Errorf("sim: Preempt(%d): run is not preemptable (Config.Preemptable unset)", j.ID)
	}
	if !s.inEvent {
		return fmt.Errorf("sim: Preempt(%d) outside a scheduling event", j.ID)
	}
	idx := s.runningIndex(j.ID)
	if idx < 0 {
		return fmt.Errorf("sim: Preempt(%d): not running", j.ID)
	}
	r := s.running[idx]
	ran := s.now - r.Start
	left := s.scheduledEnd(r) - s.now
	if ran < 1 || left < 1 {
		return fmt.Errorf("sim: Preempt(%d): ran %ds, %ds left — not preemptable", j.ID, ran, left)
	}
	// Extend the chain metadata before observers fire: EffectiveRuntime
	// (and with it the hybrid-FST availability key start+EffectiveRuntime)
	// must read the same value JobStarted saw, so ChainRuntime is set to
	// the full runtime only when the job was not already a chain segment.
	if j.ChainRuntime == 0 {
		j.ChainRuntime = j.Runtime
	}
	if j.Parent == 0 {
		j.Parent = j.ID
		j.Segment = 1
	}
	j.Segments = j.Segment + 1
	rem := &job.Job{
		ID:           s.allocID(),
		User:         j.User,
		Group:        j.Group,
		Submit:       s.now,
		Runtime:      j.Runtime - ran,
		Estimate:     j.Estimate - ran,
		Nodes:        j.Nodes,
		Parent:       j.Parent,
		Segment:      j.Segment + 1,
		Segments:     j.Segment + 1,
		ChainRuntime: j.ChainRuntime - ran,
	}
	if rem.Estimate < 1 {
		rem.Estimate = 1
	}
	// Release the nodes and finalize the record at the checkpoint instant.
	copy(s.running[idx:], s.running[idx+1:])
	s.running[len(s.running)-1] = RunningJob{}
	s.running = s.running[:len(s.running)-1]
	s.untrack(j.ID)
	s.used -= j.Nodes
	s.fs.AddRunning(j.User, -j.Nodes)
	s.availDirty = true
	rec := s.records.get(j.ID)
	rec.Complete = s.now
	rec.Finished = true
	rec.Preempted = true
	// KillAlways marks the record killed at Start, anticipating the
	// truncated completion; a preemption before that instant supersedes the
	// kill (the remainder re-enters with the remaining estimate budget, and
	// its own record carries the truncation if it still applies).
	rec.Killed = false
	for _, o := range s.observers {
		o.JobCompleted(s, j, r.Start)
	}
	// The remainder arrives through the event list rather than a recursive
	// handleArrival: Preempt runs inside a policy callback, and dispatching
	// policy.Arrive reentrantly from here would hand the policy a nested
	// scheduling pass over state it is mid-way through mutating.
	s.pushJob(s.now, evRequeue, rem)
	s.pendingReal++
	return nil
}

// Run executes the policy over the workload and returns the result. The
// workload must validate against the system size; it is not mutated (split
// segments are fresh Job values).
func (s *Simulator) Run(workload []*job.Job) (*Result, error) {
	if s.policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	if err := job.ValidateAll(workload, s.cfg.SystemSize); err != nil {
		return nil, err
	}
	if err := s.cfg.Fairshare.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if s.cfg.Preemptable && s.cfg.MaxRuntime > 0 {
		// Both features drive the chain machinery: splitting derives segment
		// k+1 from the recorded original at fixed MaxRuntime offsets, while
		// preemption rewrites a victim's Segments and resubmits an ad-hoc
		// remainder. Composed, a preempted split segment would orphan the
		// original's later chunks, so the combination is rejected outright
		// (sched.Spec.Validate already rejects preempt= with max=).
		return nil, fmt.Errorf("sim: Preemptable and MaxRuntime are mutually exclusive")
	}
	maxID := job.ID(0)
	for _, j := range workload {
		if j.ID > maxID {
			maxID = j.ID
		}
	}
	s.nextID = maxID + 1
	if s.cfg.FirstSegmentID > s.nextID {
		s.nextID = s.cfg.FirstSegmentID
	}
	s.fs = fairshare.NewTracker(s.cfg.Fairshare, s.cfg.FairshareEpoch)
	// The tracker's accrual frontier starts at the epoch; settle the empty
	// pre-trace span [epoch, 0) now, or the first real accrual would charge
	// it to whatever is running by then.
	if err := s.fs.Advance(0); err != nil {
		return nil, err
	}
	s.now = 0
	s.records = newRecordIndex(len(workload), maxID)
	s.order = make([]*Record, 0, len(workload))
	arrivals := s.arrivals(workload)
	s.pendingReal += len(arrivals)
	s.q.Preload(len(arrivals), func(i int) eventq.Event[evPayload] {
		return jobEvent(arrivals[i].Submit, evArrival, arrivals[i])
	})
	s.policy.Reset(s)
	s.rescheduleWake()

	for {
		e, ok := s.q.Pop()
		if !ok {
			break
		}
		if e.Kind == evWake && e.Payload.wake != s.wakeVer {
			continue // stale wake, superseded or withdrawn: not an event
		}
		if e.Time < s.now {
			return nil, fmt.Errorf("sim: event time %d before now %d", e.Time, s.now)
		}
		if e.Time > s.now {
			s.advanceTo(e.Time)
		}
		s.events++
		if e.Kind != evWake {
			s.pendingReal--
		}
		switch e.Kind {
		case evArrival, evRequeue:
			s.handleArrival(e.Payload.job)
		case evCompletion:
			s.handleCompletionBatch(e.Payload.job)
		case evWake:
			s.pendingWakeOK = false // consumed
			s.dispatch(func() { s.policy.Wake(s) })
		case evWCLCheck:
			s.handleWCLCheck(e.Payload.job)
		default:
			return nil, fmt.Errorf("sim: unknown event kind %d", e.Kind)
		}
		if s.cfg.Validate {
			if err := s.checkInvariants(); err != nil {
				return nil, err
			}
		}
	}
	return s.finish()
}

// arrivals returns every submission of the workload in (submit, workload
// order) order, the stream the event list preloads: the order a push per
// submission in workload order would pop, since same-time arrivals pop in
// push order and arrival prio belongs to arrivals alone. A sorted workload
// that needs no splitting or cloning is the stream itself; staggered split
// segments and unsorted SWF input are sorted stably, on a copy.
func (s *Simulator) arrivals(workload []*job.Job) []*job.Job {
	subs, owned := workload, false
	if s.cfg.Preemptable || s.cfg.MaxRuntime > 0 {
		subs, owned = make([]*job.Job, 0, len(workload)), true
		for _, j := range workload {
			if s.cfg.Preemptable {
				// Preemption mutates the preempted job's chain metadata;
				// run on private clones so workload slices shared across
				// concurrent runs (campaign cells and their policy tasks)
				// are never written to.
				subs = append(subs, j.Clone())
				continue
			}
			subs = s.appendSubmissions(subs, j)
		}
	}
	bySubmit := func(a, b *job.Job) int { return cmp.Compare(a.Submit, b.Submit) }
	if !slices.IsSortedFunc(subs, bySubmit) {
		if !owned {
			subs = slices.Clone(subs)
		}
		slices.SortStableFunc(subs, bySubmit)
	}
	return subs
}

// advanceTo reports the elapsed interval to observers, settles fairshare
// accrual, and moves the clock. The queued-node total and the tracker's
// running-user table are maintained incrementally by the arrival/start/
// release bookkeeping, so no per-event walk of the queue or running set is
// needed here.
func (s *Simulator) advanceTo(t int64) {
	for _, o := range s.observers {
		o.Interval(s.now, t, s.used, s.queuedNodes)
	}
	if err := s.fs.Advance(t); err != nil {
		// Advance only fails on time reversal, which advanceTo precludes.
		panic(err)
	}
	s.now = t
	s.availDirty = true
}

func (s *Simulator) handleArrival(j *job.Job) {
	if s.cfg.Kill == KillWhenNeeded {
		s.killOverruns()
	}
	rec := &Record{Job: j, Submit: s.now}
	s.records.put(j.ID, rec)
	s.order = append(s.order, rec)
	s.queuedNodes += j.Nodes
	queued := s.policy.Queued()
	for _, o := range s.observers {
		o.JobArrived(s, j, queued)
	}
	s.dispatch(func() { s.policy.Arrive(s, j) })
}

// handleCompletionBatch processes every completion event scheduled at the
// current instant as one scheduling cycle: all completing jobs release
// their nodes first, then the policy reacts to each. Releasing in bulk
// matters — were the policy invoked after the first release alone, other
// jobs completing at the same instant would still look running (and,
// having reached their estimates, like overrunners), distorting every
// reservation computed in that pass.
func (s *Simulator) handleCompletionBatch(first *job.Job) {
	batch := append(s.batchBuf[:0], first)
	for {
		e, ok := s.q.Peek()
		if !ok || e.Time != s.now || e.Kind != evCompletion {
			break
		}
		s.q.Pop()
		s.events++
		s.pendingReal--
		batch = append(batch, e.Payload.job)
	}
	s.batchBuf = batch // keep the grown buffer for the next instant
	type done struct {
		job   *job.Job
		start int64
	}
	finished := make([]done, 0, len(batch))
	for _, j := range batch {
		if start, ok := s.release(j, false); ok {
			finished = append(finished, done{j, start})
		}
	}
	for _, d := range finished {
		for _, o := range s.observers {
			o.JobCompleted(s, d.job, d.start)
		}
	}
	for _, d := range finished {
		if next := s.nextSegment(d.job); next != nil {
			// The checkpoint restart is resubmitted within the same
			// scheduling cycle as the completion (a production scheduler
			// polls its queue periodically, so the two coincide): enqueue
			// the segment before the policy reacts, so it competes for the
			// freed nodes under the regular queue priority.
			s.handleArrival(next)
		}
		job := d.job
		s.dispatch(func() { s.policy.Complete(s, job) })
	}
}

// handleKill terminates a running job at its wall-clock limit.
func (s *Simulator) handleKill(j *job.Job) {
	start, ok := s.release(j, true)
	if !ok {
		return
	}
	for _, o := range s.observers {
		o.JobCompleted(s, j, start)
	}
	if next := s.nextSegment(j); next != nil {
		s.handleArrival(next)
	}
	s.dispatch(func() { s.policy.Complete(s, j) })
}

// release performs the completion bookkeeping: removes the job from the
// running set, returns its nodes and finalizes its record. ok is false for
// a stale completion: the job is no longer running because a kill or a
// preemption already finalized its record, and its originally scheduled
// completion event fires anyway. A completion for a job that is neither
// running nor finished is a bug.
func (s *Simulator) release(j *job.Job, killed bool) (start int64, ok bool) {
	idx := s.runningIndex(j.ID)
	if idx < 0 {
		if s.records.get(j.ID).Finished {
			return 0, false
		}
		panic(fmt.Sprintf("sim: completion for job %d not running", j.ID))
	}
	start = s.running[idx].Start
	copy(s.running[idx:], s.running[idx+1:])
	s.running[len(s.running)-1] = RunningJob{} // drop the job pointer for the GC
	s.running = s.running[:len(s.running)-1]
	s.untrack(j.ID)
	s.used -= j.Nodes
	s.fs.AddRunning(j.User, -j.Nodes)
	s.availDirty = true
	rec := s.records.get(j.ID)
	rec.Complete = s.now
	rec.Finished = true
	if killed {
		rec.Killed = true
	}
	return start, true
}

// handleWCLCheck fires when a running job reaches its wall-clock limit under
// KillWhenNeeded: the job is killed if any work is queued.
func (s *Simulator) handleWCLCheck(j *job.Job) {
	if s.runningIndex(j.ID) < 0 || s.queuedNodes == 0 {
		return // already gone, or nodes not needed: the job may keep running
	}
	s.handleKill(j)
}

// killOverruns terminates every running job past its wall-clock limit; the
// arrival being processed proves the processors are needed.
func (s *Simulator) killOverruns() {
	for {
		victim := (*job.Job)(nil)
		for _, r := range s.running {
			if r.Start+r.Job.Estimate <= s.now && r.Job.Estimate < r.Job.Runtime {
				victim = r.Job
				break
			}
		}
		if victim == nil {
			return
		}
		s.handleKill(victim)
	}
}

func (s *Simulator) dispatch(f func()) {
	s.inEvent = true
	f()
	s.inEvent = false
	s.rescheduleWake()
}

// rescheduleWake pushes a wake event at the earliest of the policy's own
// request and the next fairshare decay boundary (which can reorder the
// queue) while work is queued.
func (s *Simulator) rescheduleWake() {
	var t int64
	have := false
	if pt, ok := s.policy.NextWake(s.now); ok && pt > s.now {
		t, have = pt, true
	}
	// Decay boundaries reorder the queue, so wake the policy at them — but
	// only while something can still change (jobs running or real events
	// pending). Without the guard, a policy that never starts a queued job
	// would keep the simulation alive on decay wake-ups forever.
	if s.queuedNodes > 0 && (len(s.running) > 0 || s.pendingReal > 0) {
		b := s.fs.NextBoundaryAfter(s.now)
		if !have || b < t {
			t, have = b, true
		}
	}
	if !have {
		if s.pendingWakeOK {
			// Nothing left to wake for: withdraw the pending wake, or it
			// would move the clock past the last real event.
			s.wakeVer++
			s.pendingWakeOK = false
		}
		return
	}
	if s.pendingWakeOK && s.pendingWake == t {
		return // an identical wake is already on the list
	}
	s.wakeVer++
	s.pendingWake, s.pendingWakeOK = t, true
	s.q.Push(eventq.Event[evPayload]{Time: t, Prio: eventPrio(evWake), Kind: evWake, Payload: evPayload{wake: s.wakeVer}})
}

func (s *Simulator) finish() (*Result, error) {
	for _, o := range s.observers {
		o.Done(s)
	}
	res := &Result{
		Policy:     s.policy.Name(),
		SystemSize: s.cfg.SystemSize,
		Events:     s.events,
	}
	if len(s.running) > 0 || s.used != 0 {
		return nil, fmt.Errorf("sim: %d jobs still running at end of events", len(s.running))
	}
	res.Records = append(res.Records, s.order...)
	sort.SliceStable(res.Records, func(i, k int) bool {
		if res.Records[i].Submit != res.Records[k].Submit {
			return res.Records[i].Submit < res.Records[k].Submit
		}
		return res.Records[i].Job.ID < res.Records[k].Job.ID
	})
	first, last := int64(-1), int64(-1)
	for _, r := range res.Records {
		if !r.Finished {
			return nil, fmt.Errorf("sim: job %d never completed (policy %s lost it)", r.Job.ID, s.policy.Name())
		}
		if first < 0 || r.Start < first {
			first = r.Start
		}
		if r.Complete > last {
			last = r.Complete
		}
	}
	if first >= 0 {
		res.FirstStart = first
		res.LastCompletion = last
		res.Makespan = last - first
	}
	return res, nil
}

// checkInvariants validates conservation properties after every event.
func (s *Simulator) checkInvariants() error {
	used := 0
	for _, r := range s.running {
		used += r.Job.Nodes
		if r.Start > s.now {
			return fmt.Errorf("sim: job %d started in the future", r.Job.ID)
		}
	}
	if used != s.used {
		return fmt.Errorf("sim: used nodes drift: tracked %d, actual %d", s.used, used)
	}
	if used > s.cfg.SystemSize {
		return fmt.Errorf("sim: %d nodes in use on a %d-node system", used, s.cfg.SystemSize)
	}
	queuedNodes := 0
	for _, qj := range s.policy.Queued() {
		rec := s.records.get(qj.ID)
		if rec == nil {
			return fmt.Errorf("sim: queued job %d unknown", qj.ID)
		}
		if rec.Started {
			return fmt.Errorf("sim: queued job %d already started", qj.ID)
		}
		queuedNodes += qj.Nodes
	}
	if queuedNodes != s.queuedNodes {
		return fmt.Errorf("sim: queued nodes drift: tracked %d, actual %d", s.queuedNodes, queuedNodes)
	}
	if s.availInit {
		if len(s.byRelease) != len(s.running) {
			return fmt.Errorf("sim: release index drift: %d entries, %d running", len(s.byRelease), len(s.running))
		}
		for i, p := range s.byRelease {
			if i > 0 && s.byRelease[i-1].until > p.until {
				return fmt.Errorf("sim: release index out of order at entry %d", i)
			}
			if idx := s.runningIndex(p.run.Job.ID); idx < 0 || s.running[idx] != p.run {
				return fmt.Errorf("sim: release index holds job %d, which is not running", p.run.Job.ID)
			}
		}
	}
	userNodes := make(map[int]int)
	for _, r := range s.running {
		userNodes[r.Job.User] += r.Job.Nodes
	}
	table := s.fs.AppendRunning(nil)
	if len(userNodes) != len(table) {
		return fmt.Errorf("sim: user aggregation drift: tracked %d users, actual %d", len(table), len(userNodes))
	}
	for _, u := range table {
		if userNodes[u.User] != u.Nodes {
			return fmt.Errorf("sim: user %d aggregation drift: tracked %d nodes, actual %d", u.User, u.Nodes, userNodes[u.User])
		}
	}
	return nil
}
