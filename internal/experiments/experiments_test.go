package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
	"fairsched/internal/scenario"
	"fairsched/internal/workload"
)

// smallResults runs the full nine-policy sweep on a quarter-scale workload
// once per test binary.
var smallResultsCache *Results

func smallResults(t *testing.T) *Results {
	t.Helper()
	if smallResultsCache != nil {
		return smallResultsCache
	}
	res, err := Run(Config{
		Workload: workload.Config{Seed: 42, Scale: 0.15, SystemSize: 150},
		Study:    core.StudyConfig{SystemSize: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	smallResultsCache = res
	return res
}

func TestRunProducesAllPolicies(t *testing.T) {
	res := smallResults(t)
	if len(res.AllKeys) != 9 || len(res.MinorKeys) != 5 {
		t.Fatalf("keys: %d all, %d minor", len(res.AllKeys), len(res.MinorKeys))
	}
	for _, k := range res.AllKeys {
		s, ok := res.ByKey[k]
		if !ok || s == nil {
			t.Fatalf("missing summary for %s", k)
		}
		if s.Jobs == 0 {
			t.Fatalf("%s scheduled no jobs", k)
		}
		if s.LossOfCapacity < 0 || s.LossOfCapacity > 1 {
			t.Fatalf("%s LOC out of range: %v", k, s.LossOfCapacity)
		}
		if s.Utilization <= 0 || s.Utilization > 1 {
			t.Fatalf("%s utilization out of range: %v", k, s.Utilization)
		}
	}
	if res.Baseline() == nil {
		t.Fatal("baseline missing")
	}
}

func TestEvaluationFiguresStructure(t *testing.T) {
	res := smallResults(t)
	figs := res.EvaluationFigures()
	if len(figs) != 12 {
		t.Fatalf("got %d figures, want 12 (figures 8-19)", len(figs))
	}
	wantIDs := []string{"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19"}
	for i, f := range figs {
		if f.ID != wantIDs[i] {
			t.Errorf("figure %d id = %s, want %s", i, f.ID, wantIDs[i])
		}
		if len(f.Labels) == 0 || len(f.Series) == 0 {
			t.Errorf("%s: empty labels or series", f.ID)
		}
		for _, s := range f.Series {
			if len(s.Values) != len(f.Labels) {
				t.Errorf("%s series %q: %d values for %d labels",
					f.ID, s.Name, len(s.Values), len(f.Labels))
			}
		}
	}
}

func TestBarFiguresCoverPolicies(t *testing.T) {
	res := smallResults(t)
	f8 := res.Figure8()
	if len(f8.Labels) != 5 {
		t.Fatalf("fig8 has %d bars, want 5 minor policies", len(f8.Labels))
	}
	f14 := res.Figure14()
	if len(f14.Labels) != 9 {
		t.Fatalf("fig14 has %d bars, want 9 policies", len(f14.Labels))
	}
	for i, k := range res.AllKeys {
		if f14.Labels[i] != k {
			t.Fatalf("fig14 label %d = %s, want %s", i, f14.Labels[i], k)
		}
	}
}

func TestWidthFiguresUseCategoryLabels(t *testing.T) {
	res := smallResults(t)
	f10 := res.Figure10()
	if len(f10.Labels) != job.NumWidthCategories {
		t.Fatalf("fig10 labels = %d", len(f10.Labels))
	}
	if f10.Labels[0] != "1" || f10.Labels[10] != "513+" {
		t.Fatalf("fig10 labels wrong: %v", f10.Labels)
	}
	if len(f10.Series) != 5 {
		t.Fatalf("fig10 series = %d", len(f10.Series))
	}
	f16 := res.Figure16()
	if len(f16.Series) != 5 { // baseline + 4 conservative
		t.Fatalf("fig16 series = %d", len(f16.Series))
	}
}

func TestFigure3Series(t *testing.T) {
	res := smallResults(t)
	f3 := res.Figure3()
	if len(f3.Series) != 2 {
		t.Fatalf("fig3 series = %d", len(f3.Series))
	}
	if f3.Series[0].Name != "Offered Load" || f3.Series[1].Name != "Actual Utilization" {
		t.Fatalf("fig3 series names: %v, %v", f3.Series[0].Name, f3.Series[1].Name)
	}
	if len(f3.Labels) < 30 {
		t.Fatalf("fig3 covers %d weeks", len(f3.Labels))
	}
}

func TestCharacterizeMatchesWorkloadTables(t *testing.T) {
	jobs, err := workload.Generate(workload.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(jobs)
	if c.Jobs != workload.Table1Total() {
		t.Fatalf("characterized %d jobs", c.Jobs)
	}
	if c.Table1 != job.CountGrid(jobs) {
		t.Fatal("table 1 grid mismatch")
	}
	if c.StandardAllocFraction < 0.5 {
		t.Errorf("standard allocations only %.2f; Figure 4 shows they dominate", c.StandardAllocFraction)
	}
	if c.OverestimatedFraction < 0.7 {
		t.Errorf("overestimated fraction %.2f too low", c.OverestimatedFraction)
	}
	if c.OverRuntimeLogCorr >= 0 {
		t.Errorf("Figure 6 correlation should be negative, got %.3f", c.OverRuntimeLogCorr)
	}
	// Figure 7: overestimation roughly unrelated to width.
	if abs := mathAbs(c.OverNodesLogCorr); abs > 0.4 {
		t.Errorf("Figure 7 correlation |r|=%.3f should be weak", abs)
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestIsStandardAlloc(t *testing.T) {
	for _, n := range []int{1, 2, 4, 64, 1024, 9, 25, 49, 144, 1089} {
		if !isStandardAlloc(n) {
			t.Errorf("%d should be standard", n)
		}
	}
	for _, n := range []int{3, 5, 7, 11, 60, 127} {
		if isStandardAlloc(n) {
			t.Errorf("%d should not be standard", n)
		}
	}
}

func TestRenderFigureBar(t *testing.T) {
	var buf bytes.Buffer
	RenderFigure(&buf, Figure{
		ID: "fig9", Title: "test", Unit: "seconds",
		Labels: []string{"a", "b"},
		Series: []Series{{Name: "seconds", Values: []float64{10, 20}}},
	})
	out := buf.String()
	if !strings.Contains(out, "FIG9") || !strings.Contains(out, "#") {
		t.Fatalf("bar render missing pieces: %q", out)
	}
}

func TestRenderFigureSeriesTable(t *testing.T) {
	var buf bytes.Buffer
	RenderFigure(&buf, Figure{
		ID: "fig10", Title: "test", Unit: "s",
		Labels: []string{"1", "2"},
		Series: []Series{
			{Name: "pol1", Values: []float64{1, 2}},
			{Name: "pol2", Values: []float64{3, 4}},
		},
	})
	out := buf.String()
	if !strings.Contains(out, "pol1") || !strings.Contains(out, "pol2") {
		t.Fatalf("series render missing names: %q", out)
	}
}

func TestRenderTables(t *testing.T) {
	var buf bytes.Buffer
	RenderTable1(&buf, workload.Table1Counts)
	if !strings.Contains(buf.String(), "TABLE 1") || !strings.Contains(buf.String(), "513+") {
		t.Fatal("table 1 render incomplete")
	}
	buf.Reset()
	RenderTable2(&buf, workload.Table2ProcHours)
	if !strings.Contains(buf.String(), "TABLE 2") {
		t.Fatal("table 2 render incomplete")
	}
}

func TestWriteReportContainsEverything(t *testing.T) {
	res := smallResults(t)
	var buf bytes.Buffer
	WriteReport(&buf, res)
	out := buf.String()
	for _, want := range []string{"TABLE 1", "TABLE 2", "FIG3", "FIG8", "FIG19",
		"PAPER VS MEASURED"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Claims are judged by cmd/hypotheses alone.
	if strings.Contains(out, "PAPER CLAIMS") {
		t.Error("report still carries a claim section")
	}
}

func TestPaperValuesHaveMeasurableCounterparts(t *testing.T) {
	res := smallResults(t)
	for _, pv := range PaperValues() {
		if _, ok := MeasuredFor(res, pv); !ok {
			t.Errorf("paper value %v has no measured counterpart", pv)
		}
	}
}

// TestRunOnMatchesExecute is the differential check on the study path:
// at every width, RunOn's one-cell campaign yields, per policy and in spec
// order, exactly the summary core.Execute produces on its own — including
// for a study that carries its own user placement (per-queue rows).
func TestRunOnMatchesExecute(t *testing.T) {
	jobs, err := workload.Generate(workload.Config{Seed: 7, Scale: 0.05, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	queues, err := scenario.Parse("queue=p50:light,default:heavy")
	if err != nil {
		t.Fatal(err)
	}
	placement, err := queues.Placement(jobs)
	if err != nil {
		t.Fatal(err)
	}
	specs := core.AllSpecs()
	for _, cfg := range []core.StudyConfig{
		{SystemSize: 100},
		{SystemSize: 100, Placement: placement},
	} {
		want := make([]*metrics.Summary, len(specs))
		for i, spec := range specs {
			run, err := core.Execute(cfg, spec, jobs)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = run.Summary
		}
		for _, parallel := range []int{1, 4} {
			res, err := RunOn(cfg, jobs, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.AllKeys) != len(specs) || len(res.ByKey) != len(specs) {
				t.Fatalf("width %d: %d keys / %d summaries, want %d", parallel, len(res.AllKeys), len(res.ByKey), len(specs))
			}
			for i, spec := range specs {
				if res.AllKeys[i] != spec.Key {
					t.Fatalf("width %d: key %d is %s, want %s", parallel, i, res.AllKeys[i], spec.Key)
				}
				if got := res.ByKey[spec.Key]; !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("width %d, placement %t: %s diverges from core.Execute:\n got %+v\nwant %+v",
						parallel, cfg.Placement != nil, spec.Key, got, want[i])
				}
			}
		}
	}
}
