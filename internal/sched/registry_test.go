package sched

import (
	"strings"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/sim"
)

func TestRegistryCoversTheDesignSpace(t *testing.T) {
	bs := Builtins()
	if len(bs) < 30 {
		t.Fatalf("registry has %d specs, want >= 30", len(bs))
	}
	orders := map[string]bool{}
	backfills := map[string]bool{}
	seen := map[string]bool{}
	for _, b := range bs {
		if b.Key == "" || b.Description == "" {
			t.Errorf("registry entry %+v lacks a key or description", b)
		}
		if seen[b.Key] {
			t.Errorf("duplicate registry key %q", b.Key)
		}
		seen[b.Key] = true
		if err := b.Spec.Validate(); err != nil {
			t.Errorf("%s: invalid spec: %v", b.Key, err)
		}
		n := b.Spec.normalized()
		orders[n.Order] = true
		backfills[n.Backfill] = true
	}
	if len(orders) < 4 {
		t.Errorf("registry spans %d orders, want >= 4: %v", len(orders), orders)
	}
	if len(backfills) < 4 {
		t.Errorf("registry spans %d backfill disciplines, want >= 4: %v", len(backfills), backfills)
	}
}

func TestEveryBuiltinBuildsAndRuns(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 300, Estimate: 400, Nodes: 10},
		{ID: 2, User: 2, Submit: 5, Runtime: 200, Estimate: 200, Nodes: 12},
		{ID: 3, User: 1, Submit: 10, Runtime: 100, Estimate: 150, Nodes: 6},
		{ID: 4, User: 3, Submit: 15, Runtime: 500, Estimate: 500, Nodes: 4},
		{ID: 5, User: 2, Submit: 20, Runtime: 50, Estimate: 60, Nodes: 2},
	}
	for _, b := range Builtins() {
		pol := MustNew(b.Spec)
		if pol.Name() != b.Key {
			t.Errorf("%s: policy named %q", b.Key, pol.Name())
		}
		cfg := sim.Config{SystemSize: 16, Validate: true, Preemptable: b.Spec.PreemptTrigger != ""}
		res, err := sim.New(cfg, pol).Run(jobs)
		if err != nil {
			t.Errorf("%s: %v", b.Key, err)
			continue
		}
		// A preempted segment leaves a record of its own; every job ends in
		// exactly one that ran to completion.
		done := 0
		for _, r := range res.Records {
			if !r.Preempted {
				done++
			}
		}
		if done != len(jobs) {
			t.Errorf("%s: %d completed records for %d jobs", b.Key, done, len(jobs))
		}
	}
}

func TestLookupDynamicDepthNames(t *testing.T) {
	s, ok := Lookup("depth12")
	if !ok || s.Depth != 12 || s.Backfill != BackfillDepth || s.Order != "fairshare" {
		t.Fatalf("depth12 = %+v, %v", s, ok)
	}
	for _, bad := range []string{"depth0", "depth", "depthx", "depth-3"} {
		if _, ok := Lookup(bad); ok {
			t.Errorf("%q resolved", bad)
		}
	}
}

func TestLookupPaperNames(t *testing.T) {
	for _, key := range []string{
		"cplant24.nomax.all", "cplant24.nomax.fair", "cplant72.nomax.all",
		"cplant24.72max.all", "cplant72.72max.fair",
		"cons.nomax", "consdyn.nomax", "cons.72max", "consdyn.72max",
		"fcfs", "easy", "list.fairshare",
	} {
		if _, ok := Lookup(key); !ok {
			t.Errorf("registry lost %q", key)
		}
	}
}

func TestRegistryNamePropertiesMatchComponents(t *testing.T) {
	for _, b := range Builtins() {
		s := b.Spec.normalized()
		if has72max := s.MaxRuntime == 72*3600; has72max != strings.Contains(b.Key, "72max") {
			t.Errorf("%s: MaxRuntime inconsistent with name", b.Key)
		}
		if isFair := s.Heavy == HeavyNonheavy; isFair != strings.HasSuffix(b.Key, ".fair") {
			t.Errorf("%s: heavy classifier inconsistent with name", b.Key)
		}
		if strings.Contains(b.Key, "cplant72") && s.Wait != 72*3600 {
			t.Errorf("%s: wait inconsistent with name", b.Key)
		}
		if strings.Contains(b.Key, "cplant24") && s.Wait != 24*3600 {
			t.Errorf("%s: wait inconsistent with name", b.Key)
		}
	}
}
