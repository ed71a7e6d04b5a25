package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/slo"
	"fairsched/internal/topology"
)

// sloJobs builds a workload with a clear usage ladder: user 1 lightest,
// user 4 heaviest.
func sloJobs() []*job.Job {
	return []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 1},    // 100
		{ID: 2, User: 2, Submit: 10, Runtime: 100, Estimate: 100, Nodes: 10},  // 1000
		{ID: 3, User: 3, Submit: 20, Runtime: 1000, Estimate: 1000, Nodes: 1}, // 1000+100
		{ID: 4, User: 3, Submit: 30, Runtime: 100, Estimate: 100, Nodes: 1},
		{ID: 5, User: 4, Submit: 40, Runtime: 1000, Estimate: 1000, Nodes: 64}, // 64000
	}
}

func mustParseSLO(t *testing.T, val string) SLOTag {
	t.Helper()
	tr, err := parseSLO(val)
	if err != nil {
		t.Fatalf("parseSLO(%q): %v", val, err)
	}
	return tr.(SLOTag)
}

func assignFor(t *testing.T, spec string, jobs []*job.Job) *slo.Assignment {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Apply(jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := s.SLOAssignment(out)
	if err != nil {
		t.Fatal(err)
	}
	return asg
}

func TestSLOQuantileBands(t *testing.T) {
	// 4 users, percentiles 25/50/75/100 in usage order 1,2,3,4.
	asg := assignFor(t, "slo=p50:2h,p90:24h,default:96h", sloJobs())
	if asg.NumUsers() != 4 {
		t.Fatalf("tagged %d users, want 4", asg.NumUsers())
	}
	wantClass := map[int]string{1: "p50", 2: "p50", 3: "p90", 4: "default"}
	wantWait := map[string]int64{"p50": 2 * 3600, "p90": 24 * 3600, "default": 96 * 3600}
	for u, cls := range wantClass {
		ut, ok := asg.Lookup(u)
		if !ok || ut.Class != cls || ut.Target.Wait != wantWait[cls] {
			t.Errorf("user %d = %+v (ok=%v), want class %s", u, ut, ok, cls)
		}
	}
}

func TestSLONoDefaultLeavesHeavyUntagged(t *testing.T) {
	asg := assignFor(t, "slo=p50:2h", sloJobs())
	if asg.NumUsers() != 2 {
		t.Fatalf("tagged %d users, want 2", asg.NumUsers())
	}
	if _, ok := asg.Lookup(4); ok {
		t.Fatal("heaviest user tagged without a default band")
	}
}

func TestSLOUserOverrideWins(t *testing.T) {
	asg := assignFor(t, "slo=p50:2h,default:96h,user1:30m", sloJobs())
	ut, ok := asg.Lookup(1)
	if !ok || ut.Class != "user1" || ut.Target.Wait != 1800 {
		t.Fatalf("override lost: %+v", ut)
	}
	// Override for a user absent from the workload is skipped.
	asg2 := assignFor(t, "slo=default:96h,user999:30m", sloJobs())
	if _, ok := asg2.Lookup(999); ok {
		t.Fatal("absent user tagged")
	}
}

func TestSLOMergedTargetsAndBestEffort(t *testing.T) {
	asg := assignFor(t, "slo=p50:2h,p50:6x,default:none", sloJobs())
	ut, _ := asg.Lookup(1)
	if ut.Target.Wait != 7200 || ut.Target.Slowdown != 6 {
		t.Fatalf("merged band wrong: %+v", ut.Target)
	}
	// default:none tags nobody trackable: users 3 and 4 drop out.
	if asg.NumUsers() != 2 {
		t.Fatalf("tagged %d users, want 2 (best-effort default)", asg.NumUsers())
	}
}

func TestSLOAppliesAfterOtherTransforms(t *testing.T) {
	// The user filter reshapes the population; quantiles are computed on
	// the surviving users.
	asg := assignFor(t, "users=top2+slo=p50:2h,default:96h", sloJobs())
	if asg.NumUsers() != 2 {
		t.Fatalf("tagged %d users, want 2 after top2 filter", asg.NumUsers())
	}
	// Survivors are users 3 (lighter) and 4 (heavier): 3 -> p50, 4 -> default.
	if ut, _ := asg.Lookup(3); ut.Class != "p50" {
		t.Fatalf("user 3 class %q, want p50", ut.Class)
	}
	if ut, _ := asg.Lookup(4); ut.Class != "default" {
		t.Fatalf("user 4 class %q, want default", ut.Class)
	}
}

func TestSLOIdentityOnJobs(t *testing.T) {
	s, err := Parse("slo=p50:2h")
	if err != nil {
		t.Fatal(err)
	}
	in := sloJobs()
	out, err := s.Apply(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("slo transform changed the workload: %d -> %d jobs", len(in), len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatal("slo transform rewrote a job")
		}
	}
}

func TestSLONoProviderNoAssignment(t *testing.T) {
	s, err := Parse("load=1.5")
	if err != nil {
		t.Fatal(err)
	}
	asg, err := s.SLOAssignment(sloJobs())
	if err != nil || asg != nil {
		t.Fatalf("assignment without provider: %v, %v", asg, err)
	}
}

// Round-trip Canonical() coverage for every token form the slo grammar
// accepts: Name() must re-parse to a transform with the identical Name().
func TestSLOCanonicalRoundTrip(t *testing.T) {
	cases := []struct{ in, canonical string }{
		{"p50:2h,p90:24h", "slo=p50:2h,p90:1d"}, // exact day multiples canonicalize to d
		{"p90:24h,p50:2h", "slo=p50:2h,p90:1d"}, // bands sort ascending
		{"default:96h,p50:2h", "slo=p50:2h,default:4d"},
		{"p50:7200", "slo=p50:2h"},             // durations canonicalize
		{"p50:90", "slo=p50:90s"},              // bare seconds gain the unit
		{"p50:8x", "slo=p50:8x"},               // slowdown target
		{"p50:2.5x", "slo=p50:2.5x"},           // fractional slowdown
		{"p50:1000000x", "slo=p50:1000000x"},   // no exponent form ('+' would split the chain)
		{"p50:2h,p50:6x", "slo=p50:2h,p50:6x"}, // merged band: wait first
		{"p50:6x,p50:2h", "slo=p50:2h,p50:6x"},
		{"user7:30m,user3:1h", "slo=user3:1h,user7:30m"}, // users sort by id
		{"default:none,p50:2h", "slo=p50:2h,default:none"},
		{"user12:none", "slo=user12:none"},
		{"p100:1w", "slo=p100:1w"},
		{"p50:2h,p90:24h,default:96h,user7:30m,user7:6x",
			"slo=p50:2h,p90:1d,default:4d,user7:30m,user7:6x"},
	}
	for _, c := range cases {
		tr := mustParseSLO(t, c.in)
		if got := tr.Name(); got != c.canonical {
			t.Errorf("Name(%q) = %q, want %q", c.in, got, c.canonical)
			continue
		}
		re, err := ParseTransform(tr.Name())
		if err != nil {
			t.Errorf("canonical %q does not re-parse: %v", tr.Name(), err)
			continue
		}
		if re.Name() != tr.Name() {
			t.Errorf("canonical unstable: %q -> %q", tr.Name(), re.Name())
		}
	}
}

func TestSLOParseRejections(t *testing.T) {
	bad := []string{
		"",                // empty
		"p50",             // no target
		"p0:2h",           // quantile out of range
		"p101:2h",         // quantile out of range
		"px:2h",           // not a number
		"user-3:2h",       // negative user
		"gold:2h",         // unknown class form
		"p50:0.5x",        // slowdown below 1
		"p50:NaNx",        // non-finite slowdown
		"p50:Infx",        // non-finite slowdown
		"p50:+Infx",       // non-finite slowdown
		"p50:-2h",         // negative duration
		"p50:2h,p50:3h",   // duplicate wait target for one band
		"p50:4x,p50:5x",   // duplicate slowdown target
		"p50:none,p50:2h", // best-effort then a target
		"p50:2h,p50:none", // target then best-effort
		"default:2h,default:3h",
		"user5:1h,user5:2h",
		"p50:none,p50:none",        // duplicate best-effort declaration
		"p50:1099511627777s",       // wait target one second past job.MaxTime
		"p50:9223372036854775807s", // submit + wait would wrap int64
	}
	for _, in := range bad {
		if tr, err := parseSLO(in); err == nil {
			t.Errorf("parseSLO(%q) accepted: %v", in, tr.Name())
		}
	}
}

// TestSLOWaitTargetHorizon: a wait target may reach job.MaxTime, and a
// struct-literal tag may not pass it any more than the grammar may
// (TestSLOParseRejections). Beyond it a
// queued job's deadline (submit + wait) could wrap negative, sort first
// under edf and fire the deadline preemption trigger.
func TestSLOWaitTargetHorizon(t *testing.T) {
	asg := assignFor(t, fmt.Sprintf("slo=default:%ds", int64(job.MaxTime)), sloJobs())
	if w, ok := asg.WaitTarget(1); !ok || w != job.MaxTime {
		t.Fatalf("horizon wait target = %d (ok=%v), want %d", w, ok, int64(job.MaxTime))
	}
	tag := SLOTag{Classes: []SLOClass{{Default: true, Target: slo.Target{Wait: job.MaxTime + 1}}}}
	if err := tag.ContributeSLO(sloJobs(), slo.NewBuilder()); err == nil {
		t.Fatal("struct-literal wait target past the horizon accepted")
	}
}

// A zero-value SLOClass (no discriminator set) must be rejected, not
// silently treated as a user-0 override.
func TestSLOZeroValueClassRejected(t *testing.T) {
	tag := SLOTag{Classes: []SLOClass{{Target: slo.Target{Wait: 3600}}}}
	if _, err := tag.Apply(sloJobs(), nil); err == nil {
		t.Fatal("zero-value class accepted by Apply")
	}
	if err := tag.ContributeSLO(sloJobs(), slo.NewBuilder()); err == nil {
		t.Fatal("zero-value class accepted by ContributeSLO")
	}
	// An explicit user-0 override stays expressible.
	asg := assignFor(t, "slo=default:96h,user0:30m", append(sloJobs(),
		&job.Job{ID: 9, User: 0, Submit: 0, Runtime: 10, Estimate: 10, Nodes: 1}))
	if ut, ok := asg.Lookup(0); !ok || ut.Class != "user0" || ut.Target.Wait != 1800 {
		t.Fatalf("user0 override lost: %+v (ok=%v)", ut, ok)
	}
}

func TestBuiltinSLOTiered(t *testing.T) {
	s, ok := Get("slo-tiered")
	if !ok {
		t.Fatal("slo-tiered not registered")
	}
	if !strings.Contains(s.Transforms[0].Name(), "slo=p50:2h,p90:1d,default:4d") {
		t.Fatalf("slo-tiered canonical = %q", s.Transforms[0].Name())
	}
	asg, err := s.SLOAssignment(sloJobs())
	if err != nil || asg == nil || asg.NumUsers() != 4 {
		t.Fatalf("slo-tiered assignment: %+v, %v", asg, err)
	}
}

// Assignments must be identical however the campaign parallelizes: pure
// function of (scenario, workload).
func TestSLOAssignmentDeterministic(t *testing.T) {
	a := assignFor(t, "slo-tiered", sloJobs())
	b := assignFor(t, "slo-tiered", sloJobs())
	ua, ub := a.Users(), b.Users()
	if len(ua) != len(ub) {
		t.Fatal("user count differs")
	}
	for i := range ua {
		if ua[i] != ub[i] {
			t.Fatalf("user %d differs: %+v vs %+v", i, ua[i], ub[i])
		}
	}
}

// referenceQuantileAssign is the pre-selection band assignment: full sort of
// the users by (usage asc, id asc), percentile 100*k/n per 1-based rank k,
// smallest covering band wins. The selection-based ContributeSLO must
// reproduce its membership exactly.
func referenceQuantileAssign(usage map[int]int64, quantiles []int, hasDefault bool) map[int]string {
	users := usersByUsage(usage, true)
	n := len(users)
	out := make(map[int]string, n)
	for rank, u := range users {
		pct := 100 * (rank + 1) / n
		tagged := false
		for _, q := range quantiles {
			if pct <= q {
				out[u] = fmt.Sprintf("p%d", q)
				tagged = true
				break
			}
		}
		if !tagged && hasDefault {
			out[u] = "default"
		}
	}
	return out
}

// TestSLOSelectionMatchesSort pins the O(n) quickselect band assignment
// bit-identical to the full-sort reference over random populations: 30
// seeds x three contention shapes (mirroring the policy differential
// suites), random band sets, usage maps with deliberate ties. The same
// bands as a queue= or partition= tag (alternating by seed) must place
// users identically.
func TestSLOSelectionMatchesSort(t *testing.T) {
	shapes := []struct {
		name  string
		users int
		tie   int64 // usage values are multiples of tie (ties across users)
	}{
		{"calm", 40, 1},
		{"contended", 500, 50}, // heavy ties: rank order falls to the id
		{"split", 2000, 1000},  // few distinct usage levels
	}
	bandSets := [][]int{{50}, {25, 75}, {10, 50, 90}, {1, 99}, {100}}
	for _, sh := range shapes {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed*977 + int64(sh.users)))
			usage := make(map[int]int64, sh.users)
			for u := 0; u < sh.users; u++ {
				// Sparse, shuffled ids; values quantized to force ties.
				id := u*3 + rng.Intn(3)
				usage[id] = (1 + rng.Int63n(100)) * sh.tie
			}
			quantiles := bandSets[int(seed)%len(bandSets)]
			hasDefault := seed%2 == 0

			var tag SLOTag
			for _, q := range quantiles {
				tag.Classes = append(tag.Classes, SLOClass{Quantile: q, Target: slo.Target{Wait: 3600 * int64(q)}})
			}
			if hasDefault {
				tag.Classes = append(tag.Classes, SLOClass{Default: true, Target: slo.Target{Wait: 999 * 3600}})
			}
			var jobs []*job.Job
			id := job.ID(1)
			for u, ps := range usage {
				jobs = append(jobs, &job.Job{ID: id, User: u, Runtime: ps, Estimate: ps, Nodes: 1})
				id++
			}
			b := slo.NewBuilder()
			if err := tag.ContributeSLO(jobs, b); err != nil {
				t.Fatalf("%s seed %d: %v", sh.name, seed, err)
			}
			asg := b.Build()
			want := referenceQuantileAssign(usage, quantiles, hasDefault)
			got := make(map[int]string, len(want))
			if asg != nil {
				for _, ut := range asg.Users() {
					got[ut.User] = ut.Class
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: tagged %d users, reference tagged %d", sh.name, seed, len(got), len(want))
			}
			for u, cls := range want {
				if got[u] != cls {
					t.Fatalf("%s seed %d: user %d in %q, reference says %q", sh.name, seed, u, got[u], cls)
				}
			}

			// Destinations named after the bands make the placement
			// directly comparable with the reference.
			place := PlaceTag{Kind: "queue"}
			lookup := (*topology.Placement).Queue
			if seed%4 >= 2 {
				place.Kind, lookup = "partition", (*topology.Placement).PartitionTag
			}
			for _, c := range tag.Classes {
				place.Classes = append(place.Classes, PlaceClass{
					Quantile: c.Quantile, Default: c.Default, Dest: c.band().name(),
				})
			}
			pb := &topology.PlacementBuilder{}
			if err := place.ContributePlacement(jobs, pb); err != nil {
				t.Fatalf("%s seed %d: %s: %v", sh.name, seed, place.Kind, err)
			}
			placed := pb.Build()
			for u := range usage {
				dest, ok := lookup(placed, u)
				if cls, tagged := want[u]; ok != tagged || dest != cls {
					t.Fatalf("%s seed %d: %s placed user %d at %q (ok=%v), reference says %q",
						sh.name, seed, place.Kind, u, dest, ok, cls)
				}
			}
		}
	}
}

func TestQuantileBoundary(t *testing.T) {
	// Pin the closed form against the percentile definition it encodes.
	for n := 0; n <= 137; n++ {
		for _, q := range []int{1, 10, 25, 50, 90, 99, 100} {
			want := 0
			for k := 1; k <= n; k++ {
				if 100*k/n <= q {
					want = k
				}
			}
			if got := quantileBoundary(q, n); got != want {
				t.Fatalf("quantileBoundary(%d, %d) = %d, want %d", q, n, got, want)
			}
		}
	}
}
