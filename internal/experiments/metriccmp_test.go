package experiments

import (
	"bytes"
	"strings"
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/workload"
)

func TestCompareMetricsWithoutSabin(t *testing.T) {
	jobs, err := workload.Generate(workload.Config{Seed: 2, Scale: 0.05, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	specs := []core.Spec{}
	for _, key := range []string{"cplant24.nomax.all", "consdyn.nomax"} {
		s, err := core.SpecByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	rows, err := CompareMetrics(core.StudyConfig{SystemSize: 100}, specs, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.HybridPercentUnfair < 0 || r.HybridPercentUnfair > 100 {
			t.Errorf("%s: hybrid percent out of range: %v", r.Policy, r.HybridPercentUnfair)
		}
		if r.ConsPAvgMiss < 0 {
			t.Errorf("%s: negative CONS-P miss", r.Policy)
		}
	}
}

func TestRenderMetricComparison(t *testing.T) {
	var buf bytes.Buffer
	RenderMetricComparison(&buf, []MetricRow{
		{Policy: "cplant24.nomax.all", HybridPercentUnfair: 7, HybridAvgMiss: 9000,
			ConsPPercentUnfair: 40, ConsPAvgMiss: 50000},
	})
	out := buf.String()
	if !strings.Contains(out, "METRIC COMPARISON") || !strings.Contains(out, "cplant24.nomax.all") {
		t.Fatalf("render incomplete: %q", out)
	}
	if !strings.Contains(out, "  cplant24.nomax.all       7.00%   9000s  40.00%  50000s\n") {
		t.Fatalf("row misrendered: %q", out)
	}
}
