package job

import (
	"strings"
	"testing"
	"testing/quick"
)

func validJob() *Job {
	return &Job{ID: 1, User: 3, Group: 1, Submit: 100, Runtime: 600, Estimate: 900, Nodes: 16}
}

func TestValidateAcceptsWellFormedJob(t *testing.T) {
	if err := validJob().Validate(1024); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Job)
		want   string
	}{
		{"zero id", func(j *Job) { j.ID = 0 }, "non-positive id"},
		{"negative id", func(j *Job) { j.ID = -4 }, "non-positive id"},
		{"negative submit", func(j *Job) { j.Submit = -1 }, "negative submit"},
		{"zero runtime", func(j *Job) { j.Runtime = 0 }, "runtime"},
		{"zero estimate", func(j *Job) { j.Estimate = 0 }, "estimate"},
		{"zero nodes", func(j *Job) { j.Nodes = 0 }, "nodes"},
		{"too wide", func(j *Job) { j.Nodes = 2048 }, "exceed system size"},
		{"submit past horizon", func(j *Job) { j.Submit = MaxTime + 1 }, "horizon"},
		{"runtime past horizon", func(j *Job) { j.Runtime = MaxTime + 1 }, "horizon"},
		{"estimate past horizon", func(j *Job) { j.Estimate = 9e18 }, "horizon"},
		{"chain runtime past horizon", func(j *Job) { j.ChainRuntime = 1 << 62 }, "horizon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := validJob()
			tc.mutate(j)
			err := j.Validate(1024)
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsTheHorizon(t *testing.T) {
	j := validJob()
	j.Submit, j.Runtime, j.Estimate, j.ChainRuntime = MaxTime, MaxTime, MaxTime, MaxTime
	if err := j.Validate(1024); err != nil {
		t.Fatalf("times at the horizon rejected: %v", err)
	}
}

func TestValidateNilJob(t *testing.T) {
	var j *Job
	if err := j.Validate(10); err == nil {
		t.Fatal("nil job accepted")
	}
}

func TestValidateIgnoresSystemSizeWhenZero(t *testing.T) {
	j := validJob()
	j.Nodes = 1 << 20
	if err := j.Validate(0); err != nil {
		t.Fatalf("system size 0 should skip the width check: %v", err)
	}
}

func TestValidateAllDetectsDuplicateIDs(t *testing.T) {
	a, b := validJob(), validJob()
	b.Submit = 200
	if err := ValidateAll([]*Job{a, b}, 1024); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	b.ID = 2
	if err := ValidateAll([]*Job{a, b}, 1024); err != nil {
		t.Fatalf("distinct ids rejected: %v", err)
	}
}

func TestProcSeconds(t *testing.T) {
	j := &Job{Nodes: 16, Runtime: 600}
	if got := j.ProcSeconds(); got != 9600 {
		t.Fatalf("ProcSeconds = %d, want 9600", got)
	}
}

func TestOverestimationFactor(t *testing.T) {
	j := &Job{Runtime: 100, Estimate: 250}
	if got := j.OverestimationFactor(); got != 2.5 {
		t.Fatalf("factor = %v, want 2.5", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	j := validJob()
	c := j.Clone()
	c.Nodes = 99
	c.ID = 77
	if j.Nodes == 99 || j.ID == 77 {
		t.Fatal("clone shares state with original")
	}
}

func TestEffectiveRuntime(t *testing.T) {
	j := &Job{Runtime: 100}
	if j.EffectiveRuntime() != 100 {
		t.Fatalf("plain job effective runtime = %d", j.EffectiveRuntime())
	}
	j.ChainRuntime = 500
	if j.EffectiveRuntime() != 500 {
		t.Fatalf("segment effective runtime = %d, want chain 500", j.EffectiveRuntime())
	}
}

func TestTotalProcSecondsAndMaxNodes(t *testing.T) {
	jobs := []*Job{
		{Nodes: 2, Runtime: 10},
		{Nodes: 5, Runtime: 100},
		{Nodes: 3, Runtime: 1},
	}
	var total int64
	for _, j := range jobs {
		total += j.ProcSeconds()
	}
	if total != 20+500+3 {
		t.Fatalf("total ProcSeconds = %d", total)
	}
	if got := MaxNodes(jobs); got != 5 {
		t.Fatalf("MaxNodes = %d", got)
	}
	if MaxNodes(nil) != 0 {
		t.Fatal("MaxNodes of an empty slice should be zero")
	}
}

func TestStringMentionsKeyFields(t *testing.T) {
	s := validJob().String()
	for _, frag := range []string{"job 1", "user 3", "16 nodes"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}

func TestValidateAllPropagatesJobError(t *testing.T) {
	bad := validJob()
	bad.Runtime = 0
	if err := ValidateAll([]*Job{bad}, 0); err == nil {
		t.Fatal("invalid job accepted by ValidateAll")
	}
}

func TestCloneQuickProperty(t *testing.T) {
	f := func(id int64, user, nodes int, runtime int64) bool {
		j := &Job{ID: ID(id), User: user, Nodes: nodes, Runtime: runtime}
		c := j.Clone()
		return *c == *j && c != j
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
