package sweep_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/job"
	"fairsched/internal/sweep"
	"fairsched/internal/workload"
)

func testJobs(t *testing.T) []*job.Job {
	t.Helper()
	jobs, err := workload.Generate(workload.Config{Seed: 7, Scale: 0.05, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestMapPreservesInputOrder checks that results land at their input index
// no matter which worker finishes first.
func TestMapPreservesInputOrder(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	got, err := sweep.Map(8, items, nil, func(_ int, v int) (int, error) {
		return v * v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapSerialEqualsParallel checks the bounded pool produces the same
// result vector at every worker count.
func TestMapSerialEqualsParallel(t *testing.T) {
	items := []string{"a", "bb", "ccc", "dddd"}
	fn := func(i int, s string) (string, error) { return fmt.Sprintf("%d:%s", i, s), nil }
	serial, err := sweep.Map(1, items, nil, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		parallel, err := sweep.Map(workers, items, nil, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("workers=%d: result[%d] = %q, want %q", workers, i, parallel[i], serial[i])
			}
		}
	}
}

// TestMapRunsEverythingAndAggregatesErrors checks per-run error capture:
// failures neither stop the sweep nor lose their index/label, and the
// surviving slots still hold results.
func TestMapRunsEverythingAndAggregatesErrors(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	results, err := sweep.Map(4, []int{0, 1, 2, 3, 4, 5},
		func(v int) string { return fmt.Sprintf("item-%d", v) },
		func(_ int, v int) (int, error) {
			ran.Add(1)
			if v%2 == 1 {
				return 0, boom
			}
			return v + 100, nil
		})
	if ran.Load() != 6 {
		t.Fatalf("ran %d tasks, want all 6", ran.Load())
	}
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	var agg *sweep.Errors
	if !errors.As(err, &agg) {
		t.Fatalf("error type %T, want *sweep.Errors", err)
	}
	if len(agg.Runs) != 3 {
		t.Fatalf("captured %d run errors, want 3", len(agg.Runs))
	}
	for i, want := range []int{1, 3, 5} {
		re := agg.Runs[i]
		if re.Index != want || re.Label != fmt.Sprintf("item-%d", want) {
			t.Fatalf("run error %d = {%d %q}, want index %d", i, re.Index, re.Label, want)
		}
	}
	if !errors.Is(err, boom) {
		t.Fatal("errors.Is cannot reach the underlying error")
	}
	for _, i := range []int{0, 2, 4} {
		if results[i] != i+100 {
			t.Fatalf("surviving result[%d] = %d, want %d", i, results[i], i+100)
		}
	}
}

// TestMapCapturesPanics checks a panicking run is reported as that run's
// error instead of crashing the pool.
func TestMapCapturesPanics(t *testing.T) {
	_, err := sweep.Map(2, []int{0, 1}, nil, func(_ int, v int) (int, error) {
		if v == 1 {
			panic("pathological trace")
		}
		return v, nil
	})
	if err == nil || !strings.Contains(err.Error(), "pathological trace") {
		t.Fatalf("panic not captured: %v", err)
	}
}

// TestMapCapturesLabelPanics checks a panic inside the label function is
// captured like any other per-run failure.
func TestMapCapturesLabelPanics(t *testing.T) {
	results, err := sweep.Map(2, []int{0, 1},
		func(v int) string {
			if v == 1 {
				panic("bad label")
			}
			return "ok"
		},
		func(_ int, v int) (int, error) { return v + 10, nil })
	if err == nil || !strings.Contains(err.Error(), "bad label") {
		t.Fatalf("label panic not captured: %v", err)
	}
	if results[0] != 10 {
		t.Fatalf("surviving result lost: %v", results)
	}
}

// TestRunsPropagatesSimulationErrors checks a failing policy run of the
// study surfaces with its policy key attached, once per failed run.
func TestRunsPropagatesSimulationErrors(t *testing.T) {
	jobs := testJobs(t)
	// Undersized system: workload validation fails inside every run.
	_, err := experiments.RunOn(core.StudyConfig{SystemSize: 1}, jobs, 4)
	var agg *sweep.Errors
	if !errors.As(err, &agg) || len(agg.Runs) != len(core.AllSpecs()) {
		t.Fatalf("want one captured error per policy, got %v", err)
	}
	if !strings.Contains(err.Error(), "cplant24.nomax.all") {
		t.Fatalf("error does not name the failing policy: %v", err)
	}
}

// TestSweepDeterminism is the acceptance check: the same seed set produces
// byte-identical experiment reports at -parallel 1 and -parallel 8.
func TestSweepDeterminism(t *testing.T) {
	jobs := testJobs(t)
	cfg := core.StudyConfig{SystemSize: 100}
	serial, err := experiments.RunOn(cfg, jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.RunOn(cfg, jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	experiments.WriteReport(&a, serial)
	experiments.WriteReport(&b, parallel)
	if a.Len() == 0 {
		t.Fatal("empty report")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("parallel report diverges from serial report:\n--- serial ---\n%s\n--- parallel ---\n%s",
			a.String(), b.String())
	}
}
