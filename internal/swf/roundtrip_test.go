package swf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fairsched/internal/job"
)

func TestWriteParseRoundTrip(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 3, Group: 1, Submit: 0, Runtime: 600, Estimate: 900, Nodes: 16},
		{ID: 2, User: 4, Group: 2, Submit: 500, Runtime: 3600, Estimate: 7200, Nodes: 128},
	}
	header := Header{Version: 2, Computer: "test", MaxNodes: 512, UnixStartTime: 42, TimeZone: "UTC"}
	var buf bytes.Buffer
	if err := Write(&buf, FromJobs(jobs, header)); err != nil {
		t.Fatal(err)
	}
	got, h, err := ReadJobs(&buf, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxNodes != 512 || h.Computer != "test" || h.UnixStartTime != 42 {
		t.Errorf("header lost in round trip: %+v", h)
	}
	if len(got) != len(jobs) {
		t.Fatalf("job count %d != %d", len(got), len(jobs))
	}
	for i := range jobs {
		a, b := jobs[i], got[i]
		if a.ID != b.ID || a.User != b.User || a.Group != b.Group ||
			a.Submit != b.Submit || a.Runtime != b.Runtime ||
			a.Estimate != b.Estimate || a.Nodes != b.Nodes {
			t.Errorf("job %d changed: %+v -> %+v", i, a, b)
		}
	}
}

func TestRoundTripQuickProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%32) + 1
		jobs := make([]*job.Job, count)
		for i := range jobs {
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(50) + 1,
				Group:    rng.Intn(5) + 1,
				Submit:   int64(i * 100), // unique, preserves order
				Runtime:  rng.Int63n(100000) + 1,
				Estimate: rng.Int63n(200000) + 1,
				Nodes:    rng.Intn(1000) + 1,
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, FromJobs(jobs, Header{Version: 2})); err != nil {
			return false
		}
		got, _, err := ReadJobs(&buf, ConvertOptions{})
		if err != nil {
			return false
		}
		if len(got) != count {
			return false
		}
		for i := range jobs {
			if *got[i] != *jobs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteEmitsEighteenFields(t *testing.T) {
	jobs := []*job.Job{{ID: 1, User: 1, Submit: 0, Runtime: 1, Estimate: 1, Nodes: 1}}
	var buf bytes.Buffer
	if err := Write(&buf, FromJobs(jobs, Header{})); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	if got := len(strings.Fields(last)); got != 18 {
		t.Fatalf("record has %d fields, want 18: %q", got, last)
	}
}

func TestWriteHeaderOmitsZeroFields(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Trace{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty trace should emit nothing, got %q", buf.String())
	}
}
