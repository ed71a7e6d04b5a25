package scenario

import (
	"reflect"
	"strings"
	"testing"

	"fairsched/internal/job"
)

func testJobs() []*job.Job {
	return []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 600, Estimate: 900, Nodes: 16},
		{ID: 2, User: 2, Submit: 1000, Runtime: 3600, Estimate: 7200, Nodes: 32},
		{ID: 3, User: 1, Submit: 2000, Runtime: 60, Estimate: 60, Nodes: 4},
		{ID: 4, User: 3, Submit: 3000, Runtime: 7200, Estimate: 7200, Nodes: 64},
	}
}

func snapshot(jobs []*job.Job) []job.Job {
	out := make([]job.Job, len(jobs))
	for i, j := range jobs {
		out[i] = *j
	}
	return out
}

// Every transform must leave the input jobs untouched: they are shared
// read-only across campaign workers.
func TestTransformsDoNotMutateInput(t *testing.T) {
	for _, s := range Builtins() {
		in := testJobs()
		before := snapshot(in)
		if _, err := s.Apply(in, 7); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !reflect.DeepEqual(before, snapshot(in)) {
			t.Errorf("%s mutated its input", s.Name)
		}
	}
}

func TestApplyDeterministicUnderSeed(t *testing.T) {
	for _, s := range Builtins() {
		a, err := s.Apply(testJobs(), 42)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		b, err := s.Apply(testJobs(), 42)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !reflect.DeepEqual(snapshot(a), snapshot(b)) {
			t.Errorf("%s not deterministic under a fixed seed", s.Name)
		}
	}
}

func TestLoadScaleCompressesArrivals(t *testing.T) {
	out, err := (LoadScale{Factor: 2}).Apply(testJobs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Submit != 500 || out[3].Submit != 1500 {
		t.Errorf("submits = %d, %d; want 500, 1500", out[1].Submit, out[3].Submit)
	}
	if out[1].Runtime != 3600 {
		t.Error("runtime must not change under load scaling")
	}
	if _, err := (LoadScale{}).Apply(testJobs(), nil); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestWindowSlicesAndRebases(t *testing.T) {
	out, err := (Window{Start: 1000, End: 3000}).Apply(testJobs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].ID != 2 || out[1].ID != 3 {
		t.Fatalf("window kept %v", out)
	}
	if out[0].Submit != 0 || out[1].Submit != 1000 {
		t.Errorf("submits not rebased: %d, %d", out[0].Submit, out[1].Submit)
	}
}

func TestUserFilterTopByProcSeconds(t *testing.T) {
	// User 3: 7200*64; user 2: 3600*32; user 1: 600*16 + 60*4.
	out, err := (UserFilter{Top: 2}).Apply(testJobs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range out {
		if j.User == 1 {
			t.Errorf("lightest user kept: %v", j)
		}
	}
	if len(out) != 2 {
		t.Fatalf("kept %d jobs, want 2", len(out))
	}
}

func TestBurstInjectFreshIDsAndUser(t *testing.T) {
	s := Scenario{Name: "b", Transforms: []Transform{
		BurstInject{At: 500, Count: 10, Nodes: 8, Runtime: 60, Spread: 100, User: -1},
	}}
	out, err := s.Apply(testJobs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 14 {
		t.Fatalf("got %d jobs, want 14", len(out))
	}
	if err := job.ValidateAll(out, 1000); err != nil {
		t.Fatalf("injected workload invalid: %v", err)
	}
	for _, j := range out {
		if j.ID > 4 {
			if j.User != 4 {
				t.Errorf("injected job user = %d, want fresh id 4", j.User)
			}
			if j.Submit < 500 || j.Submit >= 600 {
				t.Errorf("injected submit %d outside [500, 600)", j.Submit)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		if out[i].Submit < out[i-1].Submit {
			t.Fatal("burst output not sorted by submit")
		}
	}
}

func TestPerturbEstimatesFModel(t *testing.T) {
	s := Scenario{Name: "p", Transforms: []Transform{PerturbEstimates{F: 3}}}
	out, err := s.Apply(testJobs(), 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range out {
		if j.Estimate < j.Runtime {
			t.Errorf("job %d: estimate %d below runtime %d", i, j.Estimate, j.Runtime)
		}
		if j.Estimate > 4*j.Runtime+1 {
			t.Errorf("job %d: estimate %d above (1+f)*runtime", i, j.Estimate)
		}
	}
	// f=0 must produce perfect estimates.
	perfect, err := Scenario{Name: "p0", Transforms: []Transform{PerturbEstimates{}}}.Apply(testJobs(), 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range perfect {
		if j.Estimate != j.Runtime {
			t.Errorf("f=0 estimate %d != runtime %d", j.Estimate, j.Runtime)
		}
	}
}

func TestParseBuiltinsAndChains(t *testing.T) {
	for _, name := range Names() {
		if _, err := Parse(name); err != nil {
			t.Errorf("builtin %s does not parse: %v", name, err)
		}
	}
	s, err := Parse("load=1.5+window=1d..8d+perturb=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Transforms) != 3 {
		t.Fatalf("chain parsed to %d transforms", len(s.Transforms))
	}
	if _, ok := s.Transforms[1].(Window); !ok {
		t.Fatalf("middle transform = %T, want Window", s.Transforms[1])
	}
	w := s.Transforms[1].(Window)
	if w.Start != 86400 || w.End != 8*86400 {
		t.Errorf("window bounds = %d..%d", w.Start, w.End)
	}
	if _, err := Parse("bogus"); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Errorf("unknown scenario error should list builtins, got %v", err)
	}
	if _, err := Parse("burst=at:7d.jobs:50.nodes:8.runtime:1h.spread:30m"); err != nil {
		t.Errorf("burst spec rejected: %v", err)
	}
}

// Grammar numbers whose seconds or counts overflow are rejected, not
// wrapped into a small or negative value that would pass validation.
func TestParseRejectsOverflow(t *testing.T) {
	for _, in := range []string{
		"pop=users:99151249396188840m",            // wraps to 64,000 users
		"window=15250284452471w..15250284452472w", // end wraps negative
	} {
		if s, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted as %+v", in, s.Transforms)
		}
	}
}

func TestSourceJobsAndSyntheticSeed(t *testing.T) {
	src := Jobs("lit", testJobs(), 128)
	wl, err := src.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	if wl.SystemSize != 128 || len(wl.Jobs) != 4 {
		t.Fatalf("literal source wrong: %+v", wl)
	}
}

func TestWithAppendsTransforms(t *testing.T) {
	base := Baseline()
	sliced := base.With(Window{Start: 0, End: 3600})
	if len(base.Transforms) != 0 {
		t.Fatal("With mutated the receiver")
	}
	if len(sliced.Transforms) != 1 || !strings.Contains(sliced.Name, "window=") {
		t.Fatalf("With result wrong: %+v", sliced)
	}
}

// TestSystemSize pins the one machine-size rule: the first positive
// declared size, else 1000 nodes widened to the widest job.
func TestSystemSize(t *testing.T) {
	wide := append(testJobs(), &job.Job{ID: 5, User: 4, Nodes: 1500})
	for _, tc := range []struct {
		jobs     []*job.Job
		declared []int
		want     int
	}{
		{testJobs(), []int{128, 256}, 128},
		{testJobs(), []int{0, 256}, 256},
		{testJobs(), []int{-1, 0}, 1000},
		{testJobs(), nil, 1000},
		{wide, nil, 1500},
		{wide, []int{0, 64}, 64}, // a declared size is never widened
	} {
		if got := SystemSize(tc.jobs, tc.declared...); got != tc.want {
			t.Errorf("SystemSize(widest %d, %v) = %d, want %d", job.MaxNodes(tc.jobs), tc.declared, got, tc.want)
		}
	}
}
