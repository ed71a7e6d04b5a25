package sched

import (
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/sim"
	"fairsched/internal/workload"
)

// benchWorkload generates the contended benchmark trace: the full-scale
// arrival process squeezed onto a quarter-size machine, so queues stay deep
// and every backfill/reservation path runs hot.
func benchWorkload(b *testing.B) []*job.Job {
	b.Helper()
	jobs, err := workload.Generate(workload.Config{Seed: 42, Scale: 0.1, SystemSize: 250})
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

// benchPolicyEvents measures the per-event scheduling cost of one composed
// policy: ns/event over a full simulation run (the shared-profile path —
// every reservation and backfill check reads the per-event availability
// profile instead of re-deriving release times).
func benchPolicyEvents(b *testing.B, spec string) {
	benchPolicyEventsWith(b, func() *Composite { return MustParse(spec) })
}

// benchPolicyEventsRef runs a conservative policy with the revalidation
// cache disabled — the from-scratch reference path — so the cache's win is
// measurable inside one binary.
func benchPolicyEventsRef(b *testing.B, spec string) {
	benchPolicyEventsWith(b, func() *Composite {
		pol := MustParse(spec)
		pol.engine.(*conservativeEngine).noCache = true
		return pol
	})
}

func benchPolicyEventsWith(b *testing.B, mk func() *Composite) {
	jobs := benchWorkload(b)
	b.ReportAllocs()
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol := mk()
		cfg := sim.Config{SystemSize: 250, Preemptable: pol.spec.PreemptTrigger != ""}
		res, err := sim.New(cfg, pol).Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		b.ReportMetric(float64(events), "events/run")
	}
}

func BenchmarkEventCPlantBaseline(b *testing.B) { benchPolicyEvents(b, "cplant24.nomax.all") }
func BenchmarkEventCPlantDepth2(b *testing.B)   { benchPolicyEvents(b, "cplant24.depth2") }
func BenchmarkEventEASY(b *testing.B)           { benchPolicyEvents(b, "easy") }
func BenchmarkEventConservative(b *testing.B)   { benchPolicyEvents(b, "cons.nomax") }
func BenchmarkEventConsDynamic(b *testing.B)    { benchPolicyEvents(b, "consdyn.nomax") }

// The *Ref variants run the same disciplines with the revalidation cache
// disabled (the from-scratch reference): the pair quantifies the cache.
func BenchmarkEventConservativeRef(b *testing.B) { benchPolicyEventsRef(b, "cons.nomax") }
func BenchmarkEventConsDynamicRef(b *testing.B)  { benchPolicyEventsRef(b, "consdyn.nomax") }
func BenchmarkEventDepth8(b *testing.B)          { benchPolicyEvents(b, "depth8") }
func BenchmarkEventListFairshare(b *testing.B)   { benchPolicyEvents(b, "list.fairshare") }
func BenchmarkEventSJFEasy(b *testing.B)         { benchPolicyEvents(b, "easy.sjf") }
func BenchmarkEventSRPT(b *testing.B)            { benchPolicyEvents(b, "srpt") }
