package sched

import (
	"math/rand"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/sim"
	"fairsched/internal/workload"
)

// mustParseNoCache builds a policy with the conservative engine's
// revalidation cache disabled — the from-scratch reference path.
func mustParseNoCache(t testing.TB, spec string) *Composite {
	t.Helper()
	pol := MustParse(spec)
	eng, ok := pol.engine.(*conservativeEngine)
	if !ok {
		t.Fatalf("%s has no conservative engine", spec)
	}
	eng.noCache = true
	return pol
}

// runRecords executes one policy over a workload and returns the full
// records plus the event count.
func runRecords(t testing.TB, pol *Composite, cfg sim.Config, jobs []*job.Job) *sim.Result {
	t.Helper()
	res, err := sim.New(cfg, pol).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameSchedule fails unless both results describe the identical
// schedule: same records (submit, start, complete, flags) in the same
// order and the same event count.
func assertSameSchedule(t *testing.T, name string, got, want *sim.Result) {
	t.Helper()
	if got.Events != want.Events {
		t.Errorf("%s: events %d != reference %d", name, got.Events, want.Events)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: %d records != reference %d", name, len(got.Records), len(want.Records))
	}
	for i, g := range got.Records {
		w := want.Records[i]
		if g.Job.ID != w.Job.ID || g.Submit != w.Submit || g.Start != w.Start ||
			g.Complete != w.Complete || g.Killed != w.Killed || g.Finished != w.Finished {
			t.Fatalf("%s: record %d diverged:\n  cached:    %+v (job %d)\n  reference: %+v (job %d)",
				name, i, *g, g.Job.ID, *w, w.Job.ID)
		}
	}
}

// TestConservativeCacheMatchesFromScratch: the revalidation cache is a pure
// optimization — for both disciplines the produced schedule must be
// identical, event for event, to the from-scratch rebuild on calm and
// contended workloads, with perfect estimates, overestimates and
// underestimates (overrun backoff, the cache's full-rebuild fallback), and
// with max-runtime splitting and kill policies in play.
func TestConservativeCacheMatchesFromScratch(t *testing.T) {
	h := int64(3600)
	type tc struct {
		name  string
		cfg   sim.Config
		scale float64
	}
	cases := []tc{
		{"calm", sim.Config{SystemSize: 500, Validate: true}, 0.02},
		{"contended", sim.Config{SystemSize: 100, Validate: true}, 0.05},
		{"split-upfront", sim.Config{SystemSize: 100, MaxRuntime: 24 * h, Split: sim.SplitUpfront, Validate: true}, 0.04},
		{"split-chained", sim.Config{SystemSize: 100, MaxRuntime: 24 * h, Split: sim.SplitChained, Validate: true}, 0.04},
		{"kill-always", sim.Config{SystemSize: 100, Kill: sim.KillAlways, Validate: true}, 0.04},
		{"kill-when-needed", sim.Config{SystemSize: 100, Kill: sim.KillWhenNeeded, Validate: true}, 0.04},
	}
	for _, spec := range []string{"cons.nomax", "consdyn.nomax", "cons.sjf", "consdyn.lxf"} {
		for _, c := range cases {
			t.Run(spec+"/"+c.name, func(t *testing.T) {
				jobs, err := workload.Generate(workload.Config{Seed: 11, Scale: c.scale, SystemSize: c.cfg.SystemSize})
				if err != nil {
					t.Fatal(err)
				}
				pol := MustParse(spec)
				cached := runRecords(t, pol, c.cfg, jobs)
				ref := runRecords(t, mustParseNoCache(t, spec), c.cfg, jobs)
				assertSameSchedule(t, spec+"/"+c.name, cached, ref)
				if eng := pol.engine.(*conservativeEngine); spec == "consdyn.nomax" && c.name == "contended" &&
					(eng.insertHits == 0 || eng.insertMisses == 0) {
					// Both branches of the dynamic arrival path must be
					// exercised for the match above to cover them. (Under
					// lxf the order moves with the clock, so an arrival
					// rarely leaves the rest of the order intact.)
					t.Errorf("%s/contended: in-place inserts %d, refused %d; want both > 0",
						spec, eng.insertHits, eng.insertMisses)
				}
			})
		}
	}
}

// TestConsdynPartialRebuildHoleHeavy targets the dynamic engine's
// hole-aware partial rebuild (partialRebuild): workloads dominated by large
// overestimates, so nearly every completion is early and opens a hole, and
// short jobs that can actually reach the released windows. Every released
// interval must produce exactly the schedule the from-scratch replay
// produces — including the verbatim prefix the partial rebuild skips.
func TestConsdynPartialRebuildHoleHeavy(t *testing.T) {
	for seed := int64(100); seed < 160; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const size = 24
		n := rng.Intn(60) + 10
		jobs := make([]*job.Job, n)
		for i := range jobs {
			runtime := rng.Int63n(300) + 1
			// Overestimate almost always (holes), occasionally exactly.
			est := runtime * (rng.Int63n(10) + 1)
			if rng.Intn(10) == 0 {
				est = runtime
			}
			nodes := rng.Intn(size/2) + 1
			if rng.Intn(5) == 0 {
				nodes = size/2 + rng.Intn(size/2) + 1 // wide: forces far reservations
			}
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(6) + 1,
				Submit:   rng.Int63n(600),
				Runtime:  runtime,
				Estimate: est,
				Nodes:    nodes,
			}
		}
		for _, spec := range []string{"consdyn.nomax", "consdyn.lxf", "consdyn.sjf"} {
			cfg := sim.Config{SystemSize: size, Validate: true}
			cached := runRecords(t, MustParse(spec), cfg, jobs)
			ref := runRecords(t, mustParseNoCache(t, spec), cfg, jobs)
			assertSameSchedule(t, spec, cached, ref)
			if t.Failed() {
				t.Fatalf("seed %d diverged", seed)
			}
		}
	}
}

// TestConservativeCacheMatchesRandomized sweeps random small workloads with
// mixed estimate quality — heavy on underestimates, so the overrun-backoff
// fallback and the same-instant completion batches are exercised — through
// cached and reference engines.
func TestConservativeCacheMatchesRandomized(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		n := rng.Intn(40) + 5
		jobs := make([]*job.Job, n)
		for i := range jobs {
			runtime := rng.Int63n(500) + 1
			est := runtime
			switch rng.Intn(3) {
			case 0:
				est = runtime * (rng.Int63n(8) + 1)
			case 1:
				est = runtime/2 + 1
			}
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(4) + 1,
				Submit:   rng.Int63n(1000),
				Runtime:  runtime,
				Estimate: est,
				Nodes:    rng.Intn(size) + 1,
			}
		}
		for _, spec := range []string{"cons.nomax", "consdyn.nomax"} {
			cfg := sim.Config{SystemSize: size, Validate: true}
			cached := runRecords(t, MustParse(spec), cfg, jobs)
			ref := runRecords(t, mustParseNoCache(t, spec), cfg, jobs)
			for i := range cached.Records {
				g, w := cached.Records[i], ref.Records[i]
				if g.Job.ID != w.Job.ID || g.Start != w.Start || g.Complete != w.Complete {
					t.Fatalf("seed %d %s record %d: cached start=%d complete=%d, reference start=%d complete=%d (job %d vs %d)",
						seed, spec, i, g.Start, g.Complete, w.Start, w.Complete, g.Job.ID, w.Job.ID)
				}
			}
			if cached.Events != ref.Events {
				t.Fatalf("seed %d %s: events %d != %d", seed, spec, cached.Events, ref.Events)
			}
		}
	}
}
