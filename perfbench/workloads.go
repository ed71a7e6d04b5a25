package main

import (
	"fmt"
	"time"

	"fairsched/internal/core"
	"fairsched/internal/fairshare"
	"fairsched/internal/scenario"
	"fairsched/internal/workload"
)

// defaultSeed is the seed whose summary digests are pinned in workloads.
const defaultSeed = 42

// workloadDef is one benchmark workload: a campaign over generated inputs,
// derived entirely from the seed argument.
type workloadDef struct {
	name string
	// digest is the pinned summary digest at defaultSeed.
	digest string
	// plan builds the workload's campaign for a seed.
	plan func(seed int64) (plan, error)
}

// plan is everything a workload runs: the cells are sources × scenarios ×
// seeds, exactly as sweep.Campaign enumerates them, with one generated
// source per workload.
type plan struct {
	source    string
	generate  func(seed int64) (*scenario.Workload, error)
	seeds     []int64
	scenarios []scenario.Scenario
	specs     []core.Spec
	study     core.StudyConfig
	parallel  int
}

// study is the study configuration every workload runs: the paper's machine
// with the hybrid-FST engine on and the CLI's fairshare defaults.
func study() core.StudyConfig {
	return core.StudyConfig{SystemSize: 1000, Fairshare: fairshare.Config{DecayFactor: 0.5}}
}

func synthetic(seed int64) (*scenario.Workload, error) {
	jobs, err := workload.Generate(workload.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &scenario.Workload{Jobs: jobs, SystemSize: 1000}, nil
}

// blockSeeds derives a workload's n input seeds from the seed argument.
// A single trace's cost depends on its seed, so a pass runs several and a
// run's figures average them; distinct seed arguments get disjoint blocks.
func blockSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*int64(n) + int64(i)
	}
	return out
}

func specs(keys ...string) ([]core.Spec, error) {
	out := make([]core.Spec, len(keys))
	for i, k := range keys {
		s, err := core.SpecByKey(k)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

var workloads = []workloadDef{
	// The paper's evaluation: its time sits in the sched conservative
	// engines, and per-user paths are small (96 users).
	{
		name:   "paper-study",
		digest: "0353c9912bac641b400d79433d96231ae339029305077d10d2f972c286834baf",
		plan: func(seed int64) (plan, error) {
			return plan{
				source: "synthetic", generate: synthetic, seeds: blockSeeds(seed, 12),
				specs: core.AllSpecs(), study: study(), parallel: 1,
			}, nil
		},
	},
	// The reverse of paper-study: sim's per-user paths dominate at 10^6
	// users and sched is small.
	{
		name:   "population-1m",
		digest: "39475d3b3b03702749356e97ce2bbaa9f4c4f7766e5885264f4d5eedf5638179",
		plan: func(seed int64) (plan, error) {
			sp, err := specs("list.fairshare", "cplant24.nomax.all")
			if err != nil {
				return plan{}, err
			}
			gen := func(seed int64) (*scenario.Workload, error) {
				jobs, err := workload.GeneratePopulation(workload.PopConfig{
					Seed: seed, Users: 1_000_000, Jobs: 50_000, Weeks: 4,
				})
				if err != nil {
					return nil, err
				}
				return &scenario.Workload{Jobs: jobs, SystemSize: 1000}, nil
			}
			return plan{
				source: "population", generate: gen, seeds: blockSeeds(seed, 3),
				specs: sp, study: study(), parallel: 1,
			}, nil
		},
	},
	// The only workload that runs the worker pool, preemption, EDF and the
	// SLO observer.
	{
		name:   "slo-campaign",
		digest: "f1eca7a1edf4f8c1a6b4cac6f88de4c51f5605e89d716d54d882a25b2dae6f78",
		plan: func(seed int64) (plan, error) {
			sp, err := specs("easy", "srpt", "edf", "edf.preempt", "cplant24.nomax.all")
			if err != nil {
				return plan{}, err
			}
			loaded, err := scenario.Parse("load=1.5+slo=p50:2h,p90:1d,default:4d")
			if err != nil {
				return plan{}, err
			}
			return plan{
				source: "synthetic", generate: synthetic, seeds: blockSeeds(seed, 6),
				scenarios: []scenario.Scenario{scenario.Baseline(), loaded},
				specs:     sp, study: study(), parallel: 2,
			}, nil
		},
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// commonPolicyKeys are the policies every workload runs. Their
// sched.policy.<key>.self_s metrics go in the JSON line; the other
// policies' are printed in the table only, so no workload reports a layer
// it does not run.
func commonPolicyKeys() map[string]bool {
	count := map[string]int{}
	for _, w := range workloads {
		p, err := w.plan(defaultSeed)
		if err != nil {
			continue
		}
		for _, s := range p.specs {
			count[s.Key]++
		}
	}
	common := map[string]bool{}
	for k, n := range count {
		if n == len(workloads) {
			common[k] = true
		}
	}
	return common
}

// cell is one (scenario, seed) of a plan's matrix.
type cell struct {
	scen scenario.Scenario
	seed int64
}

// cells enumerates the matrix in sweep.Campaign's order: scenarios, then
// seeds (one source per workload).
func (p plan) cells() []cell {
	scens := p.scenarios
	if len(scens) == 0 {
		scens = []scenario.Scenario{scenario.Baseline()}
	}
	var out []cell
	for _, s := range scens {
		for _, seed := range p.seeds {
			out = append(out, cell{s, seed})
		}
	}
	return out
}

// setupTimes splits one set-up into input generation and the scenario
// transforms plus SLO assignment; calib is the calibration kernel's time
// just before it.
type setupTimes struct {
	generate, transform, calib time.Duration
}

func (s setupTimes) total() time.Duration { return s.generate + s.transform }

// setup builds a plan's inputs: it generates each seed's workload, then
// applies each cell's scenario and derives its SLO assignment, as a
// campaign cell would. It returns the generated workloads (the campaign
// re-applies scenarios inside its cells) and the total input jobs per pass.
func setup(p plan) (map[int64]*scenario.Workload, int, setupTimes, error) {
	var st setupTimes
	inputs := make(map[int64]*scenario.Workload, len(p.seeds))
	t0 := time.Now()
	for _, seed := range p.seeds {
		wl, err := p.generate(seed)
		if err != nil {
			return nil, 0, st, fmt.Errorf("generate seed %d: %w", seed, err)
		}
		inputs[seed] = wl
	}
	st.generate = time.Since(t0)
	jobsPerPass := 0
	t1 := time.Now()
	for _, c := range p.cells() {
		jobs, err := c.scen.Apply(inputs[c.seed].Jobs, c.seed)
		if err != nil {
			return nil, 0, st, err
		}
		if _, err := c.scen.SLOAssignment(jobs); err != nil {
			return nil, 0, st, err
		}
		jobsPerPass += len(jobs) * len(p.specs)
	}
	st.transform = time.Since(t1)
	return inputs, jobsPerPass, st, nil
}
