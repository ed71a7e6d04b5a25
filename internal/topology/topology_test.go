package topology

import (
	"reflect"
	"strings"
	"testing"

	"fairsched/internal/sched"
)

func TestParseCanonicalRoundTrip(t *testing.T) {
	cases := []struct {
		in        string
		canonical string
	}{
		{"part=main", "part=main"},
		{"part=main:512", "part=main:512"},
		{"part=fast:512,part=slow:1500", "part=fast:512,part=slow:1500"},
		{
			"queue=org/a:order=fairshare+bf=easy,queue=org/b:sjf",
			"queue=org/a:order=fairshare+bf=easy,queue=org/b:order=sjf+bf=noguarantee",
		},
		{
			"part=fast:512,queue=b:part=fast,queue=a:guar=2:cap=0.5",
			"part=fast:512,queue=a:guar=2:cap=0.5,queue=b",
		},
		{
			"queue=org,queue=org/a:guar=3:fcfs,queue=org/b",
			"queue=org,queue=org/a:guar=3:fcfs,queue=org/b",
		},
		{" part=main:4 , queue=root:fcfs ", "part=main:4,queue=root:fcfs"},
	}
	for _, c := range cases {
		topo, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := topo.Canonical(); got != c.canonical {
			t.Errorf("Canonical(%q) = %q, want %q", c.in, got, c.canonical)
		}
		again, err := Parse(topo.Canonical())
		if err != nil {
			t.Fatalf("reparse Canonical(%q) = %q: %v", c.in, topo.Canonical(), err)
		}
		if !reflect.DeepEqual(topo, again) {
			t.Errorf("Parse(Canonical(%q)) diverged:\n got %+v\nwant %+v", c.in, again, topo)
		}
		if again.Canonical() != topo.Canonical() {
			t.Errorf("Canonical not a fixed point for %q", c.in)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"", "empty spec"},
		{"bogus", "not key=value"},
		{"size=4", "unknown clause"},
		{"part=", "bad partition name"},
		{"part=a.b", "bad partition name"},
		{"part=a:0", "want an integer >= 1"},
		{"part=a:x", "want an integer >= 1"},
		{"part=a,part=a", "duplicate partition"},
		{"queue=", "bad queue path"},
		{"queue=a..b", "bad queue path"},
		{"queue=a,queue=a", "duplicate queue"},
		{"queue=a:part=nope", "unknown partition"},
		{"part=x,queue=a:part=x:part=x", "duplicate part="},
		{"queue=a:guar=0", "want a positive number"},
		{"queue=a:guar=2:guar=3", "duplicate guar="},
		{"queue=a:cap=1.5", "want a fraction in (0, 1]"},
		{"queue=a:cap=0", "want a fraction in (0, 1]"},
		{"queue=a:fcfs:sjf", "second policy"},
		{"queue=a:order=bogus", "unknown"},
		{"queue=a:max=24h", "cannot set max="},
		{"queue=a:easy.preempt", "cannot set preempt="},
		{"queue=a:edf", "cannot use order=edf"},
		{"queue=org:fcfs,queue=org/a", "inner nodes carry shares, not schedulers"},
		{"part=x,part=y,queue=org:part=x,queue=org/a:part=y", "cannot span partitions"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q): want error containing %q, got nil", c.in, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error %q does not contain %q", c.in, err, c.wantSub)
		}
	}
}

// Parse errors on ad-hoc clauses carry the byte position of the offending
// token, mirroring sched.ParseSpec.
func TestParseErrorPositions(t *testing.T) {
	// "guar=bad" starts at byte 17; its value at byte 22.
	_, err := Parse("part=a:4,queue=q:guar=bad")
	if err == nil || !strings.Contains(err.Error(), "position 22") {
		t.Fatalf("want position 22 in error, got %v", err)
	}
	_, err = Parse("part=a:4,part=b!")
	if err == nil || !strings.Contains(err.Error(), "position 14") {
		t.Fatalf("want position 14 in error, got %v", err)
	}
	// A leaf policy the composition table rejects names its queue clause,
	// even when the quota sits on an ancestor declared after the leaf.
	for _, c := range []struct {
		in, wantPos, wantSub string
	}{
		{"queue=a,queue=b:order=fcfs+max=72h", "position 8: queue b:", "per-queue policies cannot set max="},
		{"part=p,queue=a:part=p:srpt", "position 7: queue a:", "per-queue policies cannot set preempt="},
		{"queue=a, queue=b:order=edf+bf=easy", "position 9: queue b:", "per-queue policies cannot use order=edf"},
		{"queue=x:cap=0.5:cons.nomax", "position 0: queue x:", "cannot run under a cap= quota"},
		{"queue=org/a:cons.nomax,queue=org:cap=0.5", "position 0: queue org/a:", "cannot run under a cap= quota"},
	} {
		_, err := Parse(c.in)
		if err == nil || !strings.Contains(err.Error(), c.wantPos) || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) = %v, want %q and %q", c.in, err, c.wantPos, c.wantSub)
		}
	}
}

// TestAdmit: a cell policy is checked against the topology it will run
// on — itself in the Cell context, and again wherever a leaf inherits it
// under a quota or beside other leaves; a nil topology is a flat run.
func TestAdmit(t *testing.T) {
	spec := func(s string) sched.Spec {
		sp, err := sched.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	for _, c := range []struct {
		topo    *Topology
		cell    string
		wantSub string // "" = admitted
	}{
		{nil, "cons.nomax", ""},
		{nil, "srpt", ""},
		{nil, "edf", ""},
		{MustParse("part=a,part=b,queue=x:part=a"), "srpt", "checkpoint preemption is not supported with a topology"},
		{MustParse("queue=x:fcfs,queue=y:sjf"), "order=edf+bf=easy", `"order=edf+bf=easy": position 0: order=edf is not supported with a topology`},
		{MustParse("queue=x:cap=0.5,queue=y"), "cons.nomax", `queue x: sched: policy spec "cons.nomax": bf=conservative starts jobs`},
		{MustParse("part=p,part=q,queue=org:part=p:cap=0.5,queue=org/a:part=p,queue=b:part=q"), "order=fcfs+bf=consdyn",
			`queue org/a: sched: policy spec "order=fcfs+bf=consdyn": position 11: bf=consdyn starts jobs on reserved capacity and cannot run under a cap= quota`},
		{MustParse("queue=x:cap=0.5:easy,queue=y"), "cons.nomax", "queue y: sched: policy spec \"cons.nomax\": bf=conservative starts jobs on reserved capacity and cannot share a partition"},
		{MustParse("part=p,part=q,queue=x:part=p:cap=0.5:easy,queue=y:part=q"), "cons.nomax", ""},
		{MustParse("queue=x:cap=0.5,queue=y"), "cplant72.72max.fair", ""},
	} {
		err := c.topo.Admit(spec(c.cell))
		if c.wantSub == "" {
			if err != nil {
				t.Errorf("%v × %s: %v", c.topo, c.cell, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%v × %s = %v, want %q", c.topo, c.cell, err, c.wantSub)
		}
	}
	// A topology built in code gets its leaf policies checked too.
	cons := spec("cons.nomax")
	built := &Topology{Queues: []QueueNode{{Path: "x", Cap: 0.5, Policy: &cons}}}
	if err := built.Admit(spec("easy")); err == nil || !strings.Contains(err.Error(), "cap= quota") {
		t.Errorf("code-built capped conservative leaf: %v", err)
	}
}

func TestEffectivePartitionsAndLeaves(t *testing.T) {
	topo := MustParse("part=fast:512,part=slow,queue=org,queue=org/a:fcfs,queue=org/b,queue=solo:part=slow")
	parts := topo.EffectivePartitions(1000)
	want := []Partition{{Name: "fast", Nodes: 512}, {Name: "slow", Nodes: 1000}}
	if !reflect.DeepEqual(parts, want) {
		t.Fatalf("EffectivePartitions = %+v, want %+v", parts, want)
	}
	leaves := topo.Leaves()
	paths := make([]string, len(leaves))
	for i, l := range leaves {
		paths[i] = l.Path
	}
	if !reflect.DeepEqual(paths, []string{"org/a", "org/b", "solo"}) {
		t.Fatalf("Leaves = %v", paths)
	}
	fast := topo.LeavesFor("fast")
	if len(fast) != 2 || fast[0].Path != "org/a" || fast[1].Path != "org/b" {
		t.Fatalf("LeavesFor(fast) = %+v", fast)
	}
	slow := topo.LeavesFor("slow")
	if len(slow) != 1 || slow[0].Path != "solo" {
		t.Fatalf("LeavesFor(slow) = %+v", slow)
	}
}

func TestZeroTopologyDefaults(t *testing.T) {
	var topo Topology
	if err := topo.Validate(); err != nil {
		t.Fatalf("zero topology invalid: %v", err)
	}
	if got := topo.DefaultPartition(); got != DefaultPartitionName {
		t.Fatalf("DefaultPartition = %q", got)
	}
	parts := topo.EffectivePartitions(128)
	if len(parts) != 1 || parts[0] != (Partition{Name: DefaultPartitionName, Nodes: 128}) {
		t.Fatalf("EffectivePartitions = %+v", parts)
	}
}

func TestPlacementBuilder(t *testing.T) {
	var b PlacementBuilder
	if b.Build() != nil {
		t.Fatal("empty builder built a placement")
	}
	b.SetQueue(7, "org/a")
	b.SetQueue(9, "org/b")
	b.SetQueue(7, "org/b") // later writes win
	b.SetPartition(3, "slow")
	p := b.Build()
	if q, ok := p.Queue(7); !ok || q != "org/b" {
		t.Fatalf("Queue(7) = %q, %v", q, ok)
	}
	if _, ok := p.Queue(3); ok {
		t.Fatal("user 3 has a queue tag")
	}
	if n, ok := p.PartitionTag(3); !ok || n != "slow" {
		t.Fatalf("PartitionTag(3) = %q, %v", n, ok)
	}
	if got := p.QueuePaths(); !reflect.DeepEqual(got, []string{"org/b"}) {
		t.Fatalf("QueuePaths = %v", got)
	}
	if p.Empty() {
		t.Fatal("placement reports empty")
	}
	var nilP *Placement
	if !nilP.Empty() {
		t.Fatal("nil placement not empty")
	}
}

func TestIsAncestor(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"org", "org/a", true},
		{"org", "org/a/x", true},
		{"org", "organization", false},
		{"org/a", "org", false},
		{"org", "org", false},
	}
	for _, c := range cases {
		if got := IsAncestor(c.a, c.b); got != c.want {
			t.Errorf("IsAncestor(%q, %q) = %v", c.a, c.b, got)
		}
	}
}

// Empty reports whether the placement carries no tags.
func (p *Placement) Empty() bool {
	return p == nil || (len(p.queue) == 0 && len(p.part) == 0)
}
