package main

import (
	"fmt"
	"time"

	"fairsched/internal/core"
	"fairsched/internal/fairness"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
)

// layer names one module whose self time the traced pass attributes.
type layer int

const (
	layerSched layer = iota
	layerSim
	layerHybridFST
	layerSLO
	layerCollector
	layerSummarize
	layerApply
	layerSLOAssign
	layerCheck
	numLayers
)

// layerNames are the metric prefixes of the layers, in layer order.
var layerNames = [numLayers]string{
	"sched", "sim", "fairness.hybridfst", "fairness.slo", "metrics.collector",
	"metrics.summarize", "scenario.apply", "scenario.slo_assign", "bench.check",
}

// tracer attributes wall time to layers by timing calls across their public
// interfaces. A span's self time is its duration minus its nested spans:
// observer callbacks fired from Env.Start inside a policy callback count
// for the observer, not the policy. A tracer belongs to one goroutine.
type tracer struct {
	stack []frame
	self  [numLayers]time.Duration
	calls [numLayers]int64
	// policySelf splits sched self time by policy key; events sums the
	// simulator's Result.Events.
	policySelf map[string]time.Duration
	events     int64
}

type frame struct {
	l     layer
	start time.Time
	child time.Duration
}

func (t *tracer) begin(l layer) {
	t.stack = append(t.stack, frame{l: l, start: time.Now()})
}

func (t *tracer) end() {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	t.self[f.l] += d - f.child
	t.calls[f.l]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// add folds another tracer's totals into t.
func (t *tracer) add(o *tracer) {
	for l := range t.self {
		t.self[l] += o.self[l]
		t.calls[l] += o.calls[l]
	}
	for k, d := range o.policySelf {
		t.addPolicy(k, d)
	}
	t.events += o.events
}

func (t *tracer) addPolicy(key string, d time.Duration) {
	if t.policySelf == nil {
		t.policySelf = map[string]time.Duration{}
	}
	t.policySelf[key] += d
}

// tracedPolicy times every call into the wrapped policy as sched time. The
// Env goes through untouched, so the engine's sim.Preempter assertion still
// sees the simulator.
type tracedPolicy struct {
	inner sim.Policy
	t     *tracer
}

func (p tracedPolicy) Name() string {
	p.t.begin(layerSched)
	defer p.t.end()
	return p.inner.Name()
}

func (p tracedPolicy) Reset(env sim.Env) {
	p.t.begin(layerSched)
	p.inner.Reset(env)
	p.t.end()
}

func (p tracedPolicy) Arrive(env sim.Env, j *job.Job) {
	p.t.begin(layerSched)
	p.inner.Arrive(env, j)
	p.t.end()
}

func (p tracedPolicy) Complete(env sim.Env, j *job.Job) {
	p.t.begin(layerSched)
	p.inner.Complete(env, j)
	p.t.end()
}

func (p tracedPolicy) Wake(env sim.Env) {
	p.t.begin(layerSched)
	p.inner.Wake(env)
	p.t.end()
}

func (p tracedPolicy) NextWake(now int64) (int64, bool) {
	p.t.begin(layerSched)
	defer p.t.end()
	return p.inner.NextWake(now)
}

func (p tracedPolicy) Queued() []*job.Job {
	p.t.begin(layerSched)
	defer p.t.end()
	return p.inner.Queued()
}

// tracedObserver times every callback into the wrapped observer as its
// layer's time.
type tracedObserver struct {
	inner sim.Observer
	t     *tracer
	l     layer
}

func (o tracedObserver) JobArrived(env sim.Env, j *job.Job, queued []*job.Job) {
	o.t.begin(o.l)
	o.inner.JobArrived(env, j, queued)
	o.t.end()
}

func (o tracedObserver) JobStarted(env sim.Env, j *job.Job) {
	o.t.begin(o.l)
	o.inner.JobStarted(env, j)
	o.t.end()
}

func (o tracedObserver) JobCompleted(env sim.Env, j *job.Job, start int64) {
	o.t.begin(o.l)
	o.inner.JobCompleted(env, j, start)
	o.t.end()
}

func (o tracedObserver) Interval(from, to int64, usedNodes, queuedNodes int) {
	o.t.begin(o.l)
	o.inner.Interval(from, to, usedNodes, queuedNodes)
	o.t.end()
}

func (o tracedObserver) Done(env sim.Env) {
	o.t.begin(o.l)
	o.inner.Done(env)
	o.t.end()
}

// tracedExecute is core.Execute's flat path with every layer call timed: the
// policy from sched.New runs behind tracedPolicy, each observer behind
// tracedObserver, and sim.Run's own time is what remains of its span. The
// workloads need neither topologies, the equality observer nor queue
// placement, so those configurations are refused rather than mirrored.
func tracedExecute(t *tracer, cfg core.StudyConfig, spec core.Spec, workload []*job.Job) (*core.Run, error) {
	if cfg.Topology != nil || cfg.Equality || len(cfg.Placement.QueuePaths()) > 0 {
		return nil, fmt.Errorf("perfbench: %s: the traced executor runs flat, unplaced studies only", spec.Key)
	}
	if cfg.SystemSize <= 0 {
		cfg.SystemSize = 1000
	}
	schedBefore := t.self[layerSched]
	defer func() { t.addPolicy(spec.Key, t.self[layerSched]-schedBefore) }()
	t.begin(layerSched)
	pol, err := sched.New(spec)
	t.end()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	simCfg := sim.Config{
		SystemSize:     cfg.SystemSize,
		Fairshare:      cfg.Fairshare,
		FairshareEpoch: cfg.FairshareEpoch,
		MaxRuntime:     spec.MaxRuntime,
		Split:          cfg.Split,
		Kill:           cfg.Kill,
		Validate:       cfg.Validate,
		Preemptable:    spec.PreemptTrigger != "",
	}
	if simCfg.Preemptable && simCfg.MaxRuntime > 0 {
		return nil, fmt.Errorf("core: %s: checkpoint preemption does not compose with max-runtime splitting", spec.String())
	}
	col := metrics.NewCollector(cfg.SystemSize)
	observers := []sim.Observer{tracedObserver{col, t, layerCollector}}
	var fst *fairness.HybridFST
	if !cfg.SkipFST {
		fst = fairness.NewHybridFST()
		observers = append(observers, tracedObserver{fst, t, layerHybridFST})
	}
	var sloObs *fairness.SLOObserver
	if cfg.SLO.NumUsers() > 0 {
		sloObs = fairness.NewSLOObserver(cfg.SLO, fst)
		if cfg.Split == sim.SplitChained || simCfg.Preemptable {
			sloObs.SetChained(true)
		}
		observers = append(observers, tracedObserver{sloObs, t, layerSLO})
		pol.SetSLOContext(cfg.SLO, sloObs)
	}
	s := sim.New(simCfg, tracedPolicy{pol, t}, observers...)
	t.begin(layerSim)
	res, err := s.Run(workload)
	t.end()
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", spec.String(), err)
	}
	t.events += res.Events
	run := &core.Run{Spec: spec, Result: res}
	if fst != nil {
		t.begin(layerHybridFST)
		run.FST = fst.Table()
		t.end()
	}
	if sloObs != nil {
		t.begin(layerSLO)
		run.SLO = sloObs.Summary()
		t.end()
	}
	t.begin(layerSummarize)
	run.Summary = metrics.Summarize(res, run.FST, col)
	t.end()
	run.Summary.Policy = spec.String()
	return run, nil
}
