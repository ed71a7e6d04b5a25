package scenario

import (
	"fmt"
	"math/rand"
	"strings"

	"fairsched/internal/job"
	"fairsched/internal/topology"
)

// PlaceClass is one band of a PlaceTag (see band for the band semantics),
// routed to Dest.
type PlaceClass struct {
	// Quantile, when in 1..100, covers the users whose processor-second
	// rank percentile is at or below it and above every smaller band.
	Quantile int
	// IsUser marks an explicit per-user override for User.
	IsUser bool
	// User is the overridden user id (meaningful only with IsUser).
	User int
	// Default catches every user no quantile band covers.
	Default bool
	// Dest is where the band's users route: a queue path for a queue tag,
	// a partition name for a partition tag.
	Dest string
}

func (c PlaceClass) band() band { return band{c.Quantile, c.IsUser, c.User, c.Default} }

// PlaceTag deterministically routes the workload's users to queue-tree
// leaves (Kind "queue", see package topology) or straight to named
// partitions (Kind "partition"; the partition's first queue schedules
// them). Like SLOTag it is an identity transform on the jobs — the routing
// is a placement contract, contributed through the PlacementProvider
// interface and derived from the pipeline's final transformed workload, so
// usage quantiles reflect every other rewrite. With a topology configured
// the tagged queue decides the user's partition and scheduler, and wins
// over a partition tag for the users it covers; without one, queue tags
// still group per-queue report rows on the flat machine.
type PlaceTag struct {
	Kind    string
	Classes []PlaceClass
}

// placeKind is what a PlaceTag's Kind decides: which destinations are
// legal and which placement the users are tagged with.
type placeKind struct {
	validDest func(string) bool
	set       func(b *topology.PlacementBuilder, user int, dest string)
}

var placeKinds = map[string]placeKind{
	"queue":     {topology.ValidPath, (*topology.PlacementBuilder).SetQueue},
	"partition": {topology.ValidName, (*topology.PlacementBuilder).SetPartition},
}

// Name implements Transform: the canonical queue= or partition= token
// (quantile bands ascending, then default, then user overrides ascending).
func (t PlaceTag) Name() string {
	ordered := orderBands(t.Classes)
	parts := make([]string, len(ordered))
	for i, c := range ordered {
		parts[i] = c.band().name() + ":" + c.Dest
	}
	return t.Kind + "=" + strings.Join(parts, ",")
}

// validate resolves the tag's kind and reports the first problem with it.
func (t PlaceTag) validate() (placeKind, error) {
	k, ok := placeKinds[t.Kind]
	if !ok {
		return k, fmt.Errorf("placement tag kind %q unknown (want queue or partition)", t.Kind)
	}
	return k, validateBands(t.Kind, t.Classes, func(c PlaceClass) error {
		if !k.validDest(c.Dest) {
			return fmt.Errorf("%s class %s: bad destination %q (want '/'-joined segments of letters, digits, '_' or '-')",
				t.Kind, c.band().name(), c.Dest)
		}
		return nil
	})
}

// Apply implements Transform: the workload passes through untouched.
func (t PlaceTag) Apply(jobs []*job.Job, _ *rand.Rand) ([]*job.Job, error) {
	if _, err := t.validate(); err != nil {
		return nil, err
	}
	return jobs, nil
}

// ContributePlacement implements PlacementProvider.
func (t PlaceTag) ContributePlacement(jobs []*job.Job, b *topology.PlacementBuilder) error {
	k, err := t.validate()
	if err != nil {
		return err
	}
	assignBands(orderBands(t.Classes), jobs, func(c PlaceClass, users []int) {
		for _, u := range users {
			k.set(b, u, c.Dest)
		}
	})
	return nil
}

// parsePlacement parses a queue= or partition= value: comma-separated
// class:destination entries.
//
//	queue=p50:org/light,default:org/heavy    lightest half to one leaf,
//	                                         everyone else to another
//	queue=user7:org/vip                      explicit per-user override
//	partition=p50:small,default:big          route users to partitions
func parsePlacement(kind, val string) (Transform, error) {
	t := PlaceTag{Kind: kind}
	err := parseBandEntries(kind, val, "p50:org/a,default:org/b", "destination",
		func(_ string, b band, dest string) error {
			t.Classes = append(t.Classes, PlaceClass{
				Quantile: b.Quantile, IsUser: b.IsUser, User: b.User, Default: b.Default,
				Dest: strings.TrimSpace(dest),
			})
			return nil
		})
	if err != nil {
		return nil, err
	}
	if _, err := t.validate(); err != nil {
		return nil, fmt.Errorf("%s=%s: %w", kind, val, err)
	}
	return t, nil
}
