package scenario

import (
	"testing"

	"fairsched/internal/topology"
)

func placementFor(t *testing.T, spec string) *topology.Placement {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Placement(sloJobs())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlacementQuantileBandsAndOverride(t *testing.T) {
	// 4 users, percentiles 25/50/75/100 in usage order 1,2,3,4; the user1
	// override beats the p50 band user 1 would fall into.
	p := placementFor(t, "queue=p50:org/light,default:org/heavy,user1:org/vip")
	for u, want := range map[int]string{1: "org/vip", 2: "org/light", 3: "org/heavy", 4: "org/heavy"} {
		if got, ok := p.Queue(u); !ok || got != want {
			t.Errorf("user %d queue = %q (ok=%v), want %q", u, got, ok, want)
		}
	}
	if _, ok := p.PartitionTag(1); ok {
		t.Error("queue tag also set a partition tag")
	}
	// Partition tags share the bands; without a default the heavy users
	// stay untagged, and an override for an absent user is skipped.
	p = placementFor(t, "partition=p50:fast,user4:fast,user999:slow")
	for u, want := range map[int]string{1: "fast", 2: "fast", 4: "fast"} {
		if got, ok := p.PartitionTag(u); !ok || got != want {
			t.Errorf("user %d partition = %q (ok=%v), want %q", u, got, ok, want)
		}
	}
	for _, u := range []int{3, 999} {
		if got, ok := p.PartitionTag(u); ok {
			t.Errorf("user %d tagged %q, want untagged", u, got)
		}
	}
}

// Round-trip coverage for the queue= and partition= tokens: Name() is
// canonical and re-parses to the identical Name().
func TestPlacementCanonicalRoundTrip(t *testing.T) {
	cases := []struct{ in, canonical string }{
		{"queue=p50:org/a,default:org/b", "queue=p50:org/a,default:org/b"},
		{"queue=default:org/b,p90:org/c,p50:org/a", "queue=p50:org/a,p90:org/c,default:org/b"},
		{"queue=user7:vip,user3:vip,p10:x", "queue=p10:x,user3:vip,user7:vip"},
		{"queue=p50: org/a", "queue=p50:org/a"}, // destinations are trimmed
		{"partition=default:slow,p30:fast", "partition=p30:fast,default:slow"},
		{"partition=user2:b,p70:a", "partition=p70:a,user2:b"},
		{"partition=p100:all", "partition=p100:all"},
	}
	for _, c := range cases {
		tr, err := ParseTransform(c.in)
		if err != nil {
			t.Errorf("ParseTransform(%q): %v", c.in, err)
			continue
		}
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

// The three band tags share one parser and validator; their rejection
// messages are pinned byte for byte.
func TestBandParseRejections(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"queue=", "queue=: empty spec (want e.g. p50:org/a,default:org/b)"},
		{"queue=p0:a", `queue entry "p0:a": want p1..p100`},
		{"queue=p50:a,p50:b", "queue=p50:a,p50:b: queue band p50 declared twice"},
		{"partition=p50:a/b", `partition=p50:a/b: partition class p50: bad destination "a/b" (want '/'-joined segments of letters, digits, '_' or '-')`},
		{"partition=p50:a,default:b!", `partition=p50:a,default:b!: partition class default: bad destination "b!" (want '/'-joined segments of letters, digits, '_' or '-')`},
		{"queue=x50:a", `queue entry "x50:a": class must be p<1..100>, default or user<id>`},
		{"queue=user-1:a", `queue entry "user-1:a": bad user id`},
		{"queue=p50", `queue entry "p50": want class:destination`},
		{"queue=user1:a,user1:b", "queue=user1:a,user1:b: queue user1 override declared twice"},
		{"partition=default:a,default:b", "partition=default:a,default:b: partition default band declared twice"},
		{"slo=p50:2h,p50:3h", `slo entry "p50:3h": duplicate target kind for this band`},
		{"slo=user1:none,user1:none", `slo entry "user1:none": band declared best-effort twice`},
	} {
		_, err := ParseTransform(c.in)
		if err == nil {
			t.Errorf("ParseTransform(%q) accepted", c.in)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("ParseTransform(%q) error\n got %q\nwant %q", c.in, err.Error(), c.want)
		}
	}
}

// A library-built PlaceTag is validated like a parsed one, kind included.
func TestPlaceTagRejectsBadLiterals(t *testing.T) {
	for _, tag := range []PlaceTag{
		{Kind: "rack", Classes: []PlaceClass{{Default: true, Dest: "a"}}},
		{Kind: "queue"},
		{Kind: "queue", Classes: []PlaceClass{{Dest: "a"}}}, // no discriminator
		{Kind: "partition", Classes: []PlaceClass{{Quantile: 50, Default: true, Dest: "a"}}},
	} {
		if _, err := tag.Apply(sloJobs(), nil); err == nil {
			t.Errorf("%+v accepted by Apply", tag)
		}
		if err := tag.ContributePlacement(sloJobs(), &topology.PlacementBuilder{}); err == nil {
			t.Errorf("%+v accepted by ContributePlacement", tag)
		}
	}
}
