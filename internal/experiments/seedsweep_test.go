package experiments

import (
	"bytes"
	"strings"
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/workload"
)

// TestSeedSweepKeepsTallyOnFailure checks a sweep whose runs fail still
// returns the (empty-total) tally alongside the aggregated error instead of
// discarding everything.
func TestSeedSweepKeepsTallyOnFailure(t *testing.T) {
	tally, err := SeedSweep(Config{
		Workload: workload.Config{Scale: 0.02, SystemSize: 100},
		Study:    core.StudyConfig{SystemSize: 2}, // every run fails validation
		Parallel: 4,
	}, []int64{1, 2})
	if err == nil {
		t.Fatal("expected error")
	}
	if tally == nil {
		t.Fatal("tally discarded despite per-run error capture")
	}
	for _, c := range tally {
		if c.Total != 0 || c.Passed != 0 {
			t.Fatalf("claim %s tallied %d/%d from failed seeds", c.ID, c.Passed, c.Total)
		}
	}
	// Rendering an all-failed sweep must not report unanimous robustness.
	var buf bytes.Buffer
	RenderSeedSweep(&buf, tally, []int64{1, 2})
	out := buf.String()
	if strings.Contains(out, "* 0/0") {
		t.Fatalf("0/0 claims rendered as unanimous:\n%s", out)
	}
	if !strings.Contains(out, "0 of 2 seeds completed") {
		t.Fatalf("incomplete sweep not flagged in header:\n%s", out)
	}
	if !strings.Contains(out, "0/16 claims hold") {
		t.Fatalf("summary line claims robustness from nothing:\n%s", out)
	}
}

func TestSeedSweepTallies(t *testing.T) {
	cfg := Config{
		Workload: workload.Config{Scale: 0.1, SystemSize: 100},
		Study:    core.StudyConfig{SystemSize: 100},
	}
	seeds := []int64{1, 2}
	tally, err := SeedSweep(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(tally) != len(PaperHypotheses()) {
		t.Fatalf("tally covers %d claims, want %d", len(tally), len(PaperHypotheses()))
	}
	for _, c := range tally {
		if c.Total != len(seeds) {
			t.Errorf("%s evaluated %d times, want %d", c.ID, c.Total, len(seeds))
		}
		if c.Passed < 0 || c.Passed > c.Total {
			t.Errorf("%s pass count %d out of range", c.ID, c.Passed)
		}
	}
}

func TestRenderSeedSweep(t *testing.T) {
	tally := []ClaimTally{
		{ID: "a", Statement: "always holds", Passed: 3, Total: 3},
		{ID: "b", Statement: "sometimes holds", Passed: 1, Total: 3},
	}
	var buf bytes.Buffer
	RenderSeedSweep(&buf, tally, []int64{1, 2, 3})
	out := buf.String()
	if !strings.Contains(out, "* 3/3 a") {
		t.Fatalf("unanimous claim not starred: %q", out)
	}
	if !strings.Contains(out, "1/3 b") {
		t.Fatalf("partial claim missing: %q", out)
	}
	if !strings.Contains(out, "1/2 claims hold under every seed") {
		t.Fatalf("summary line wrong: %q", out)
	}
}

// TestHoldsUnanimously: the report stars a claim only when it passed under
// every seed, and a claim no seed evaluated is not unanimous.
func TestHoldsUnanimously(t *testing.T) {
	tally := []ClaimTally{
		{ID: "a", Passed: 2, Total: 2},
		{ID: "b", Passed: 1, Total: 2},
		{ID: "c"},
	}
	var buf bytes.Buffer
	RenderSeedSweep(&buf, tally, []int64{1, 2})
	out := buf.String()
	for _, want := range []string{"  * 2/2 a ", "    1/2 b ", "    0/0 c ", "  1/3 claims hold under every seed"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}
