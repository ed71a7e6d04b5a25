package sched

import (
	"fmt"
	"sort"
	"strings"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// QueueConfig describes one node of a partition's queue tree for
// NewMultiQueue. Entries with a Spec are leaves (each backed by its own
// Composite); entries without one are inner nodes contributing only
// shares and quotas. Undeclared ancestors implied by leaf paths get
// guarantee 1 and no quota.
type QueueConfig struct {
	// Path is the queue-tree position ('/'-separated).
	Path string
	// Spec is the leaf's policy; nil marks an inner node.
	Spec *Spec
	// Guarantee is the node's fair-share weight among siblings (0 = 1).
	Guarantee float64
	// Cap limits the subtree to this fraction of the system's nodes;
	// 0 or 1 = no quota. Which leaf policies may run under a quota is the
	// composition table's call (the Capped context), made before
	// construction.
	Cap float64
}

// MultiQueue is a sim.Policy composing one Composite per leaf queue of a
// partition's queue tree. Jobs route to leaves by a caller-supplied
// function; each leaf schedules with its own policy over an environment
// whose free capacity is clamped by the quota chain above it; usage
// accrues to a fairshare.Tree rolled up the tree, and when capacity is
// released every other leaf gets a scheduling pass in hierarchical
// fair order (lowest usage/guarantee at the first diverging tree level
// first).
//
// With a single leaf queue and no quotas the wrapper is transparent: the
// one Composite sees the same environment and the same event sequence as
// a flat run, so records and reports are byte-identical (the
// flat-equivalence suite pins this).
type MultiQueue struct {
	cfgs  []QueueConfig
	route func(*job.Job) int
	fsCfg fairshare.Config
	epoch int64

	qs        []*Composite
	leafPaths []string

	tree        *fairshare.Tree
	chains      [][]int // leaf index -> node ids, root first
	guarantee   map[int]float64
	maxNodes    map[int]int // resolved at Reset from the system size
	running     map[int]int // node id -> running nodes (quota accounting)
	leafRunning []fairshare.Usage
	envs        []queueEnv
	order       []int
	clamped     bool
}

// NewMultiQueue assembles the policy for a partition's queue tree. Leaf
// entries must carry a Spec (callers resolve inherited policies first);
// route maps every job to a leaf index (in the order leaves appear in
// queues). The fairshare config and epoch mirror the simulator's, so tree
// accrual decays on the same boundaries as per-user usage.
func NewMultiQueue(queues []QueueConfig, route func(*job.Job) int, fsCfg fairshare.Config, epoch int64) (*MultiQueue, error) {
	if route == nil {
		return nil, fmt.Errorf("sched: multiqueue: nil route")
	}
	if err := fsCfg.Validate(); err != nil {
		return nil, fmt.Errorf("sched: multiqueue: %w", err)
	}
	mq := &MultiQueue{cfgs: queues, route: route, fsCfg: fsCfg, epoch: foldEpoch(epoch, fsCfg)}
	for _, qc := range queues {
		if qc.Spec == nil {
			continue
		}
		c, err := New(*qc.Spec)
		if err != nil {
			return nil, fmt.Errorf("sched: multiqueue: queue %s: %w", qc.Path, err)
		}
		mq.qs = append(mq.qs, c)
		mq.leafPaths = append(mq.leafPaths, qc.Path)
	}
	if len(mq.qs) == 0 {
		return nil, fmt.Errorf("sched: multiqueue: no leaf queues")
	}
	return mq, nil
}

// QuotaNodes is the node count a cap= quota of fraction frac leaves a
// subtree on a system of size nodes.
func QuotaNodes(frac float64, size int) int { return int(frac * float64(size)) }

// foldEpoch folds a positive epoch to its congruent value in
// (-interval, 0], exactly as the simulator does for its per-user tracker,
// so the tree's decay boundaries land on the same instants.
func foldEpoch(epoch int64, cfg fairshare.Config) int64 {
	if epoch <= 0 {
		return epoch
	}
	interval := cfg.DecayInterval
	if interval <= 0 {
		interval = 24 * 3600
	}
	if epoch %= interval; epoch > 0 {
		epoch -= interval
	}
	return epoch
}

// Name implements sim.Policy: the single leaf's name when the tree is
// trivial, a queue=path:policy listing otherwise.
func (mq *MultiQueue) Name() string {
	if len(mq.qs) == 1 {
		return mq.qs[0].Name()
	}
	parts := make([]string, len(mq.qs))
	for i, c := range mq.qs {
		parts[i] = mq.leafPaths[i] + ":" + c.Name()
	}
	return "queues[" + strings.Join(parts, ",") + "]"
}

// Reset implements sim.Policy: fresh tree, counters and leaf policies.
func (mq *MultiQueue) Reset(env sim.Env) {
	mq.tree = fairshare.NewTree(mq.fsCfg, mq.epoch)
	mq.guarantee = make(map[int]float64)
	mq.maxNodes = make(map[int]int)
	mq.running = make(map[int]int)
	mq.clamped = false
	for _, qc := range mq.cfgs {
		n := mq.tree.NodeFor(qc.Path)
		if qc.Guarantee != 0 {
			mq.guarantee[n] = qc.Guarantee
		}
		if qc.Cap != 0 && qc.Cap != 1 {
			mq.maxNodes[n] = QuotaNodes(qc.Cap, env.SystemSize())
			mq.clamped = true
		}
	}
	mq.chains = mq.chains[:0]
	mq.leafRunning = mq.leafRunning[:0]
	for _, path := range mq.leafPaths {
		leaf := mq.tree.NodeFor(path)
		var chain []int
		for n := leaf; n >= 0; n = mq.tree.Parent(n) {
			chain = append(chain, n)
		}
		for i, k := 0, len(chain)-1; i < k; i, k = i+1, k-1 {
			chain[i], chain[k] = chain[k], chain[i]
		}
		mq.chains = append(mq.chains, chain)
		mq.leafRunning = append(mq.leafRunning, fairshare.Usage{User: leaf})
	}
	mq.envs = make([]queueEnv, len(mq.qs))
	for i := range mq.envs {
		mq.envs[i] = queueEnv{mq: mq, leaf: i}
	}
	// Settle the pre-trace span [epoch, 0) on an empty tree, like the
	// simulator's tracker.
	if err := mq.tree.Accrue(env.Now(), nil); err != nil {
		panic(fmt.Sprintf("sched: multiqueue: tree accrual: %v", err))
	}
	for i, c := range mq.qs {
		c.Reset(mq.env(env, i))
	}
}

// env returns leaf i's wrapped environment, rebound to the current base.
func (mq *MultiQueue) env(base sim.Env, i int) sim.Env {
	mq.envs[i].Env = base
	return &mq.envs[i]
}

// settle advances the usage tree to the event instant at the current
// running levels, before any of the event's starts or releases.
func (mq *MultiQueue) settle(env sim.Env) {
	if err := mq.tree.Accrue(env.Now(), mq.leafRunning); err != nil {
		panic(fmt.Sprintf("sched: multiqueue: tree accrual: %v", err))
	}
}

// leafFor routes a job to its leaf index.
func (mq *MultiQueue) leafFor(j *job.Job) int {
	i := mq.route(j)
	if i < 0 || i >= len(mq.qs) {
		panic(fmt.Sprintf("sched: multiqueue: route(%d) = %d out of range [0, %d)", j.ID, i, len(mq.qs)))
	}
	return i
}

// Arrive implements sim.Policy: the owning leaf queues and schedules.
// Other leaves are not woken — an arrival frees no capacity, so their
// scheduling state cannot have improved (and the flat single-queue event
// sequence is preserved exactly).
func (mq *MultiQueue) Arrive(env sim.Env, j *job.Job) {
	mq.settle(env)
	i := mq.leafFor(j)
	mq.qs[i].Arrive(mq.env(env, i), j)
}

// Complete implements sim.Policy: quota release and the owning leaf's
// completion pass first, then every other leaf gets a scheduling pass in
// hierarchical fair order — the released capacity is contended for by the
// least-served subtree first.
func (mq *MultiQueue) Complete(env sim.Env, j *job.Job) {
	mq.settle(env)
	i := mq.leafFor(j)
	mq.leafRunning[i].Nodes -= j.Nodes
	if mq.clamped {
		for _, n := range mq.chains[i] {
			if _, ok := mq.maxNodes[n]; ok {
				mq.running[n] -= j.Nodes
			}
		}
	}
	mq.qs[i].Complete(mq.env(env, i), j)
	if len(mq.qs) > 1 {
		for _, k := range mq.fairOrder() {
			if k != i {
				mq.qs[k].Wake(mq.env(env, k))
			}
		}
	}
}

// Wake implements sim.Policy: every leaf reschedules in fair order (the
// leaf whose timer fired is among them; extra passes on the others are
// no-ops when nothing changed).
func (mq *MultiQueue) Wake(env sim.Env) {
	mq.settle(env)
	if len(mq.qs) == 1 {
		mq.qs[0].Wake(mq.env(env, 0))
		return
	}
	for _, k := range mq.fairOrder() {
		mq.qs[k].Wake(mq.env(env, k))
	}
}

// NextWake implements sim.Policy: the earliest leaf timer.
func (mq *MultiQueue) NextWake(now int64) (int64, bool) {
	best, ok := int64(0), false
	for _, c := range mq.qs {
		if t, o := c.NextWake(now); o && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// Queued implements sim.Policy: leaf queues concatenated in path order.
func (mq *MultiQueue) Queued() []*job.Job {
	if len(mq.qs) == 1 {
		return mq.qs[0].Queued()
	}
	var out []*job.Job
	for _, c := range mq.qs {
		out = append(out, c.Queued()...)
	}
	return out
}

// fairOrder sorts leaf indices by hierarchical fair share: walking the
// two leaves' ancestor chains from the root, the first level where they
// diverge compares the sibling subtrees' usage/guarantee ratios; ties
// fall back to path order. Stable and deterministic for equal usage.
func (mq *MultiQueue) fairOrder() []int {
	mq.order = mq.order[:0]
	for i := range mq.qs {
		mq.order = append(mq.order, i)
	}
	sort.SliceStable(mq.order, func(x, y int) bool { return mq.leafLess(mq.order[x], mq.order[y]) })
	return mq.order
}

func (mq *MultiQueue) leafLess(a, b int) bool {
	ca, cb := mq.chains[a], mq.chains[b]
	for l := 0; l < len(ca) && l < len(cb); l++ {
		if ca[l] == cb[l] {
			continue
		}
		ra := mq.tree.Usage(ca[l]) / mq.guaranteeOf(ca[l])
		rb := mq.tree.Usage(cb[l]) / mq.guaranteeOf(cb[l])
		if ra != rb {
			return ra < rb
		}
		break
	}
	return mq.leafPaths[a] < mq.leafPaths[b]
}

func (mq *MultiQueue) guaranteeOf(node int) float64 {
	if g, ok := mq.guarantee[node]; ok {
		return g
	}
	return 1
}

// queueEnv is a leaf queue's view of the simulator: identical to the base
// environment except that free capacity is clamped by every quota on the
// leaf's ancestor chain, and starts maintain the quota and accrual
// counters. With no quotas on the chain FreeNodes passes through
// untouched, so an unclamped leaf's policy sees exactly the flat
// environment.
type queueEnv struct {
	sim.Env
	mq   *MultiQueue
	leaf int
}

// FreeNodes implements sim.Env with the quota chain applied.
func (e *queueEnv) FreeNodes() int {
	free := e.Env.FreeNodes()
	mq := e.mq
	if !mq.clamped {
		return free
	}
	for _, n := range mq.chains[e.leaf] {
		if m, ok := mq.maxNodes[n]; ok {
			if r := m - mq.running[n]; r < free {
				free = r
			}
		}
	}
	if free < 0 {
		free = 0
	}
	return free
}

// Start implements sim.Env, charging the quota chain and the leaf's
// accrual stream on success.
func (e *queueEnv) Start(j *job.Job) error {
	if err := e.Env.Start(j); err != nil {
		return err
	}
	mq := e.mq
	mq.leafRunning[e.leaf].Nodes += j.Nodes
	if mq.clamped {
		for _, n := range mq.chains[e.leaf] {
			if _, ok := mq.maxNodes[n]; ok {
				mq.running[n] += j.Nodes
			}
		}
	}
	return nil
}
