package core

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/sim"
	"fairsched/internal/topology"
)

// composeWorkload is a tiny random workload whose widths fit maxWidth
// nodes: a job wider than its leaf's quota could never start, which is a
// sizing fact, not a composition rule. A few runtimes exceed 72h so max=
// splits them; estimates run from half to double the runtime so every
// kill policy has work to do.
func composeWorkload(rng *rand.Rand, maxWidth int) []*job.Job {
	jobs := make([]*job.Job, 24)
	submit := int64(0)
	for i := range jobs {
		submit += rng.Int63n(2 * 3600)
		runtime := 600 + rng.Int63n(6*3600)
		if rng.Intn(4) == 0 {
			runtime = 72*3600 + rng.Int63n(30*3600)
		}
		jobs[i] = &job.Job{
			ID: job.ID(i + 1), User: 1 + rng.Intn(6), Submit: submit,
			Runtime: runtime, Estimate: runtime/2 + rng.Int63n(runtime*3/2+1),
			Nodes: 1 + rng.Intn(maxWidth),
		}
	}
	return jobs
}

// composeStudy rotates the run-wide settings the policy must compose
// with: split mode, kill policy and an SLO assignment on or off.
func composeStudy(i int, jobs []*job.Job) StudyConfig {
	cfg := StudyConfig{
		SystemSize: 16,
		Validate:   true,
		Split:      sim.SplitMode(i % 3),
		Kill:       sim.KillPolicy(i / 3 % 3),
	}
	if i/9%2 == 0 {
		cfg.SLO = sloFor(jobs)
	}
	return cfg
}

// checkComposedRun demands an admitted spec ran to completion: every job
// recorded (itself or as a segment of its chain), every record started
// and finished, none before its submit.
func checkComposedRun(t *testing.T, name string, run *Run, err error, jobs []*job.Job) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: admitted but Execute failed: %v", name, err)
	}
	seen := make(map[job.ID]bool, len(jobs))
	for _, r := range run.Result.Records {
		if !r.Started || !r.Finished || r.Submit > r.Start {
			t.Fatalf("%s: record of job %d: submit %d, start %d, started %v, finished %v",
				name, r.Job.ID, r.Submit, r.Start, r.Started, r.Finished)
		}
		seen[r.Job.ID] = true
		seen[r.Job.Parent] = true
	}
	for _, j := range jobs {
		if !seen[j.ID] {
			t.Fatalf("%s: job %d never recorded", name, j.ID)
		}
	}
}

// composePlacement spreads the workload's six users over the given leaf
// queues ("" skips one) and partition b.
func composePlacement(leaves ...string) *topology.Placement {
	var pb topology.PlacementBuilder
	for u := 1; u <= 6; u++ {
		if k := u % (len(leaves) + 1); k < len(leaves) && leaves[k] != "" {
			pb.SetQueue(u, leaves[k])
		} else {
			pb.SetPartition(u, "b")
		}
	}
	return pb.Build()
}

var positionRE = regexp.MustCompile(`spec "([^"]*)": position (\d+):`)

// checkPositions demands a rejection carries a byte position, and that
// every position it names starts a component — a '+'-separated policy
// component, a ','-separated topology clause or a ':'-separated queue
// attribute — of the spec text it quotes.
func checkPositions(t *testing.T, name string, err error) {
	t.Helper()
	ms := positionRE.FindAllStringSubmatch(err.Error(), -1)
	if len(ms) == 0 {
		t.Fatalf("%s: rejection without a position: %v", name, err)
	}
	for _, m := range ms {
		text := m[1]
		p, _ := strconv.Atoi(m[2])
		if p >= len(text) || (p > 0 && !strings.ContainsRune("+,:", rune(text[p-1]))) {
			t.Fatalf("%s: position %d does not start a component of %q: %v", name, p, text, err)
		}
	}
}

// TestCompositionProduct walks the whole grammar product — order ×
// backfill × starve × depth × max × preempt — in three contexts: a flat
// run, the cell policy of a two-partition topology (alone on its
// partition, or on odd chains beside another leaf), and a leaf under a
// cap= quota (its own policy, or on odd chains the inherited cell
// policy). Every string is either rejected before Execute, with byte
// positions that start components, or runs a tiny workload to completion
// under simulator validation. Split mode, kill policy and SLO rotate by
// index.
func TestCompositionProduct(t *testing.T) {
	var chains []string
	for _, o := range []string{"fairshare", "fcfs", "sjf", "lxf", "widest", "narrowest", "edf"} {
		for _, bf := range []string{"none", "noguarantee", "easy", "depth", "conservative", "consdyn"} {
			for _, starve := range []string{"", "+starve=24h.all", "+starve=24h.nonheavy"} {
				for _, depth := range []string{"", "+depth=2"} {
					for _, max := range []string{"", "+max=72h"} {
						for _, pre := range []string{"", "+preempt=reserve.lowpri", "+preempt=deadline.newest"} {
							chains = append(chains, "order="+o+"+bf="+bf+starve+depth+max+pre)
						}
					}
				}
			}
		}
	}
	const parts = "part=a:16,part=b:12,"
	var accepted [3]int
	for i, p := range chains {
		rng := rand.New(rand.NewSource(int64(i)))
		jobs := composeWorkload(rng, 8) // the capped leaf's quota: 0.5 × 16

		// Flat: the chain is the run's policy.
		spec, err := SpecByKey(p)
		if err != nil {
			checkPositions(t, p+" (flat)", err)
		} else {
			cfg := composeStudy(i, jobs)
			run, err := Execute(cfg, spec, jobs)
			checkComposedRun(t, p+" (flat)", run, err, jobs)
			accepted[0]++
		}

		// Two partitions: the chain is the cell policy, inherited by leaf
		// x and run alone by partition b, which declares no leaves; on odd
		// chains x shares partition a with leaf y.
		if err == nil {
			topoSpec, leaves := parts+"queue=x:part=a", []string{"x", ""}
			if i%2 == 1 {
				topoSpec, leaves = topoSpec+",queue=y:part=a:sjf", []string{"x", "y"}
			}
			topo := topology.MustParse(topoSpec)
			if err := topo.Admit(spec); err != nil {
				checkPositions(t, p+" (topology)", err)
			} else {
				cfg := composeStudy(i+1, jobs)
				cfg.Topology, cfg.Placement = topo, composePlacement(leaves...)
				run, err := Execute(cfg, spec, jobs)
				checkComposedRun(t, p+" (topology)", run, err, jobs)
				accepted[1]++
			}
		}

		// Capped leaf: the chain runs on leaf x under a half-partition
		// quota, written into the topology with x alone on partition a, or
		// on odd chains inherited from the cell with x beside leaf y.
		topoSpec, cell := parts+"queue=x:part=a:cap=0.5:"+p+",queue=y:part=b", "easy"
		if i%2 == 1 {
			topoSpec, cell = parts+"queue=x:part=a:cap=0.5,queue=y:part=a:sjf", p
		}
		topo, err := topology.Parse(topoSpec)
		var cellSpec Spec
		if err == nil {
			if cellSpec, err = SpecByKey(cell); err == nil {
				err = topo.Admit(cellSpec)
			}
		}
		if err != nil {
			checkPositions(t, fmt.Sprintf("%s (capped leaf, %s)", p, topoSpec), err)
			continue
		}
		cfg := composeStudy(i+2, jobs)
		cfg.Topology, cfg.Placement = topo, composePlacement("x", "y")
		run, err := Execute(cfg, cellSpec, jobs)
		checkComposedRun(t, p+" (capped leaf)", run, err, jobs)
		accepted[2]++
	}
	// Guard the guard: each context must admit a real share of the product.
	for ctx, n := range accepted {
		if n < len(chains)/10 {
			t.Errorf("context %d admitted only %d of %d chains", ctx, n, len(chains))
		}
	}
}

// FuzzCompose: whenever a policy and a topology parse and the topology
// admits the policy, Execute must run a width-bounded tiny workload to
// completion — the composition table is the whole story of what runs.
func FuzzCompose(f *testing.F) {
	f.Add("easy", "", int64(1))
	f.Add("cons.nomax", "queue=x,queue=y:sjf", int64(2))
	f.Add("order=sjf+bf=depth+depth=2", "part=a:8,part=b:4,queue=x:part=a:cap=0.5,queue=y:part=b", int64(3))
	f.Add("srpt", "", int64(4))
	f.Add("cplant24.72max.all", "queue=org:cap=0.5,queue=org/a:fcfs,queue=org/b,queue=c", int64(5))
	f.Add("order=edf+bf=easy+preempt=deadline.newest", "", int64(6))
	f.Fuzz(func(t *testing.T, policy, topoSpec string, seed int64) {
		spec, err := SpecByKey(policy)
		if err != nil {
			return
		}
		var topo *topology.Topology
		if topoSpec != "" {
			if topo, err = topology.Parse(topoSpec); err != nil {
				return
			}
		}
		if topo.Admit(spec) != nil {
			return
		}
		const systemSize = 16
		width, leaves := systemSize, []string(nil)
		if topo != nil {
			for _, part := range topo.EffectivePartitions(systemSize) {
				if part.Nodes > 1<<16 {
					return // keep the fuzzer's machines small
				}
				width = min(width, part.Nodes)
				for _, q := range topo.LeavesFor(part.Name) {
					leaves = append(leaves, q.Path)
					for _, a := range topo.Queues {
						if a.Path == q.Path || topology.IsAncestor(a.Path, q.Path) {
							width = min(width, int(a.Cap*float64(part.Nodes)))
						}
					}
				}
			}
		}
		if width < 1 {
			return // a quota below one node can start nothing
		}
		rng := rand.New(rand.NewSource(seed))
		jobs := composeWorkload(rng, width)
		i := int(uint64(seed) % 18)
		cfg := composeStudy(i, jobs)
		cfg.Topology = topo
		if len(leaves) > 0 {
			var pb topology.PlacementBuilder
			for u := 1; u <= 6; u++ {
				pb.SetQueue(u, leaves[u%len(leaves)])
			}
			cfg.Placement = pb.Build()
		}
		run, err := Execute(cfg, spec, jobs)
		checkComposedRun(t, policy+" on "+topoSpec, run, err, jobs)
	})
}
