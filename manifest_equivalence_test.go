package fairsched_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairsched"
	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
	"fairsched/internal/tracecache"
)

// writeManifestTraces generates three distinct synthetic workloads, writes
// them as SWF files under dir and returns the manifest naming them.
func writeManifestTraces(t testing.TB, dir string) *tracecache.Manifest {
	t.Helper()
	m := &tracecache.Manifest{Path: filepath.Join(dir, "traces.toml")}
	for i := 1; i <= 3; i++ {
		jobs, err := fairsched.GenerateWorkload(fairsched.WorkloadConfig{
			Seed: int64(i), Scale: 0.01, SystemSize: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("trace%d.swf", i))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		werr := writeSWF(f, jobs, 100)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			t.Fatal(werr)
		}
		m.Entries = append(m.Entries, tracecache.ManifestEntry{
			Name: fmt.Sprintf("trace%d", i), Path: path,
		})
	}
	return m
}

// The campaign contract, extended to the trace cache: the report over a
// manifest is byte-identical whether each trace is streamed from SWF or
// loaded from the binary cache (cold or warm), at every parallelism.
func TestManifestCampaignByteIdentity(t *testing.T) {
	dir := t.TempDir()
	m := writeManifestTraces(t, dir)
	specs := []core.Spec{
		mustPolicy(t, "cons.nomax"),
		mustPolicy(t, "consdyn.nomax"),
	}
	render := func(sources []scenario.Source, parallel int) string {
		cells, err := sweep.Campaign{
			Sources:   sources,
			Scenarios: []scenario.Scenario{scenario.Builtins()[0]},
			Seeds:     []int64{7},
			Specs:     specs,
			Parallel:  parallel,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		experiments.RenderCampaign(&b, cells)
		return b.String()
	}

	// The reference: manifest sources with caching disabled stream each SWF
	// through the scanner, exactly like scenario.TraceFile.
	ref := render(scenario.ManifestSources(m, m.Entries, ""), 1)
	if !strings.Contains(ref, "CROSS-TRACE ROBUSTNESS") {
		t.Fatalf("three-trace report lacks the robustness section:\n%s", ref)
	}

	// Cold (first pass builds every cache file), then warm (second pass
	// decodes them), across parallel widths. Fresh sources each pass: a
	// source memoizes its load, so reuse would not touch the cache again.
	cacheDir := filepath.Join(dir, "cache")
	for _, parallel := range []int{1, 2, 8} {
		if got := render(scenario.ManifestSources(m, m.Entries, cacheDir), parallel); got != ref {
			t.Fatalf("cached report at parallel=%d differs from the streamed report:\n--- streamed ---\n%s\n--- cached ---\n%s",
				parallel, ref, got)
		}
	}

	// The plain streamed scenario.TraceFile path agrees too once its sources carry
	// the manifest names (the name is part of the rendered report).
	var plain []scenario.Source
	for _, e := range m.Entries {
		s := scenario.TraceFile(e.Path)
		s.Name = e.Name
		plain = append(plain, s)
	}
	if got := render(plain, 1); got != ref {
		t.Fatalf("TraceSource report differs from the manifest report:\n--- manifest ---\n%s\n--- tracesource ---\n%s", ref, got)
	}
}

// BenchmarkCampaignManifest times a whole manifest campaign, cold (each
// iteration builds every trace's cache in a fresh directory) and warm
// (every cache reused — the steady-state cost of an archive-scale sweep
// iteration; docs/PERFORMANCE.md records the methodology).
func BenchmarkCampaignManifest(b *testing.B) {
	dir := b.TempDir()
	m := writeManifestTraces(b, dir)
	spec := mustPolicy(b, "consdyn.nomax")
	run := func(cacheDir string) int {
		cells, err := sweep.Campaign{
			Sources:   scenario.ManifestSources(m, m.Entries, cacheDir),
			Scenarios: []scenario.Scenario{scenario.Builtins()[0]},
			Seeds:     []int64{7},
			Specs:     []core.Spec{spec},
			Parallel:  1,
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
		return len(cells)
	}
	b.Run("cold", func(b *testing.B) {
		root := b.TempDir()
		cells := 0
		for i := 0; i < b.N; i++ {
			cells += run(filepath.Join(root, fmt.Sprint(i)))
		}
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "runs/s")
	})
	b.Run("warm", func(b *testing.B) {
		cacheDir := filepath.Join(dir, "cache")
		run(cacheDir) // prime the cache; the timed iterations are all warm
		b.ResetTimer()
		cells := 0
		for i := 0; i < b.N; i++ {
			cells += run(cacheDir)
		}
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "runs/s")
	})
}
