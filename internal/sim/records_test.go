package sim

import (
	"math/rand"
	"testing"

	"fairsched/internal/job"
)

// runBoth executes the same workload through the dense record index and,
// with every job id shifted past the dense bound (2n+64), through the map
// layout. It returns both results and the id offset.
func runBoth(t *testing.T, cfg Config, jobs []*job.Job) (dense, sparse *Result, off job.ID) {
	t.Helper()
	sd := New(cfg, &greedy{})
	rd, err := sd.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sd.records.sparse != nil {
		t.Fatal("dense run fell back to the map layout")
	}
	off = job.ID(2*len(jobs) + 64)
	shifted := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		shifted[i] = j.Clone()
		shifted[i].ID += off
	}
	ss := New(cfg, &greedy{})
	rs, err := ss.Run(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if ss.records.sparse == nil {
		t.Fatal("shifted run used the dense layout")
	}
	return rd, rs, off
}

// assertSameRecords compares records position by position, job ids modulo
// the sparse run's id offset (split segments keep it: their ids are
// allocated sequentially above the workload maximum).
func assertSameRecords(t *testing.T, got, want *Result, off job.ID) {
	t.Helper()
	if got.Events != want.Events {
		t.Errorf("events %d != %d", got.Events, want.Events)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%d records != %d", len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		g, w := got.Records[i], want.Records[i]
		if g.Job.ID+off != w.Job.ID || g.Submit != w.Submit || g.Start != w.Start ||
			g.Complete != w.Complete || g.Killed != w.Killed || g.Finished != w.Finished {
			t.Fatalf("record %d diverged: dense %+v (job %d) vs sparse %+v (job %d)",
				i, *g, g.Job.ID, *w, w.Job.ID)
		}
	}
}

// TestRecordIndexDenseMatchesSparse: the dense slice is a pure layout
// change — randomized workloads (fuzz-style: random widths, runtimes,
// estimate quality, users and arrival bursts) must produce records
// identical to the map layout, including under max-runtime splitting
// (segment ids allocated past the workload maximum) and kills.
func TestRecordIndexDenseMatchesSparse(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		n := rng.Intn(60) + 5
		jobs := make([]*job.Job, n)
		for i := range jobs {
			runtime := rng.Int63n(900) + 1
			est := runtime
			switch rng.Intn(3) {
			case 0:
				est = runtime * (rng.Int63n(6) + 1)
			case 1:
				est = runtime/2 + 1
			}
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(5) + 1,
				Submit:   rng.Int63n(2000),
				Runtime:  runtime,
				Estimate: est,
				Nodes:    rng.Intn(size) + 1,
			}
		}
		cfgs := []Config{
			{SystemSize: size, Validate: true},
			{SystemSize: size, MaxRuntime: 300, Split: SplitUpfront, Validate: true},
			{SystemSize: size, MaxRuntime: 300, Split: SplitChained, Validate: true},
			{SystemSize: size, Kill: KillWhenNeeded, Validate: true},
		}
		for _, cfg := range cfgs {
			dense, sparse, off := runBoth(t, cfg, jobs)
			assertSameRecords(t, dense, sparse, off)
		}
	}
}

// A sparse id space (ids far above the workload size) must fall back to
// the map layout and still run correctly.
func TestRecordIndexSparseFallback(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1 << 40, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 4},
		{ID: 1<<40 + 7, User: 2, Submit: 50, Runtime: 100, Estimate: 100, Nodes: 4},
	}
	s := New(Config{SystemSize: 4, Validate: true}, &greedy{})
	res, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s.records.sparse == nil {
		t.Fatal("sparse id space used the dense layout")
	}
	if len(res.Records) != 2 || !res.Records[0].Finished || !res.Records[1].Finished {
		t.Fatalf("sparse run lost records: %+v", res.Records)
	}
}

// The dense layout must also carry split segments whose ids are allocated
// above the reserved headroom (forcing the append-growth path).
func TestRecordIndexGrowsForSegments(t *testing.T) {
	jobs := []*job.Job{
		// One job split into 40 segments: ids 2..41 land well past the
		// initial dense sizing for a 1-job workload.
		{ID: 1, User: 1, Submit: 0, Runtime: 4000, Estimate: 4000, Nodes: 2},
	}
	cfg := Config{SystemSize: 4, MaxRuntime: 100, Split: SplitUpfront, Validate: true}
	dense, sparse, off := runBoth(t, cfg, jobs)
	if len(dense.Records) != 40 {
		t.Fatalf("got %d segment records, want 40", len(dense.Records))
	}
	assertSameRecords(t, dense, sparse, off)
}
