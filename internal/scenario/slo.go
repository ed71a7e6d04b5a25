package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"fairsched/internal/job"
	"fairsched/internal/sched"
	"fairsched/internal/slo"
)

// SLOClass is one band of an SLOTag: a usage quantile, the default band,
// or a single explicitly-named user. Exactly one of Quantile (> 0),
// Default and IsUser must be set; the zero value is invalid (rejected by
// validation), so a forgotten discriminator errors instead of silently
// tagging user 0.
type SLOClass struct {
	// Quantile, when in 1..100, makes this a quantile band: it covers the
	// users whose total processor-second rank percentile is at or below it
	// and above every smaller band (so "p50" is the lightest half, a
	// following "p90" the next 40%).
	Quantile int
	// IsUser marks an explicit per-user override for User; it wins over
	// any band the user would otherwise fall into.
	IsUser bool
	// User is the overridden user id (meaningful only with IsUser; ids
	// start at 0 in some traces, hence the explicit flag).
	User int
	// Default, when set, catches every user no quantile band covers.
	Default bool
	// Target is the band's objective; a zero target makes the band
	// explicitly best-effort (tracked nowhere).
	Target slo.Target
}

func (c SLOClass) band() band { return band{c.Quantile, c.IsUser, c.User, c.Default} }

// SLOTag deterministically tags the workload's users with SLO targets. It
// is an identity transform on the jobs themselves — the SLO assignment is
// a measurement contract, not a workload rewrite — and contributes the
// assignment through the SLOProvider interface, derived from the final
// transformed workload of its pipeline (usage quantiles therefore reflect
// whatever load scaling, slicing or filtering the other transforms did).
// Users fall into quantile bands, the default band or user overrides as
// the band type describes.
type SLOTag struct {
	Classes []SLOClass
}

// Name implements Transform: the canonical slo= token (quantile bands
// ascending, then default, then user overrides ascending; a band with both
// a wait and a slowdown target renders as two entries, wait first).
func (t SLOTag) Name() string {
	var parts []string
	for _, c := range orderBands(t.Classes) {
		name := c.band().name()
		if c.Target.Wait > 0 {
			parts = append(parts, name+":"+fmtDur(c.Target.Wait))
		}
		if c.Target.Slowdown > 0 {
			// 'f' (never 'g'): an exponent form like 1e+06 would re-split
			// on the chain grammar's '+' separator.
			parts = append(parts, name+":"+strconv.FormatFloat(c.Target.Slowdown, 'f', -1, 64)+"x")
		}
		if c.Target.IsZero() {
			parts = append(parts, name+":none")
		}
	}
	return "slo=" + strings.Join(parts, ",")
}

// validate reports the first structural or target problem with the tag.
func (t SLOTag) validate() error {
	return validateBands("slo", t.Classes, func(c SLOClass) error {
		name := c.band().name()
		if c.Target.Wait < 0 {
			return fmt.Errorf("slo class %s: negative wait target", name)
		}
		if c.Target.Wait > job.MaxTime {
			// A deadline is submit + wait: bounding both by the horizon
			// keeps it from wrapping int64 (slo.Builder.AddClass checks
			// the same bound for library callers).
			return fmt.Errorf("slo class %s: wait target %ds beyond the %ds horizon", name, c.Target.Wait, int64(job.MaxTime))
		}
		if math.IsNaN(c.Target.Slowdown) || math.IsInf(c.Target.Slowdown, 0) {
			return fmt.Errorf("slo class %s: slowdown target must be finite", name)
		}
		if c.Target.Slowdown < 0 || (c.Target.Slowdown > 0 && c.Target.Slowdown < 1) {
			return fmt.Errorf("slo class %s: slowdown target %v below 1 (a slowdown is never < 1)",
				name, c.Target.Slowdown)
		}
		return nil
	})
}

// Apply implements Transform: the workload passes through untouched (the
// tag's effect is the SLO assignment, contributed via ContributeSLO).
func (t SLOTag) Apply(jobs []*job.Job, _ *rand.Rand) ([]*job.Job, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	return jobs, nil
}

// ContributeSLO implements SLOProvider: registers the tag's classes and
// assigns every user of the (transformed) workload to its band.
func (t SLOTag) ContributeSLO(jobs []*job.Job, b *slo.Builder) error {
	if err := t.validate(); err != nil {
		return err
	}
	ordered := orderBands(t.Classes)
	for _, c := range ordered {
		if err := b.AddClass(c.band().name(), c.Target); err != nil {
			return err
		}
	}
	// Rank users by total processor-seconds ascending (the same heaviness
	// measure UserFilter's top-K uses; ties toward the lower id in both).
	// Builder.Build sorts its tagged users, so the within-band order is free.
	assignBands(ordered, jobs, func(c SLOClass, users []int) {
		name := c.band().name()
		for _, u := range users {
			b.Tag(u, name)
		}
	})
	return nil
}

// parseSLO parses the slo= value: comma-separated class:target entries.
//
//	slo=p50:2h,p90:24h            lightest half 2h wait, next 40% 24h
//	slo=p50:2h,default:96h        everyone above p50 gets 96h
//	slo=p90:8x                    slowdown target (suffix x) for the
//	                              lightest 90%
//	slo=p50:2h,p50:6x             the same band may carry both kinds
//	slo=user7:30m                 explicit per-user override (wins)
//	slo=p50:2h,default:none       explicitly best-effort band
func parseSLO(val string) (Transform, error) {
	idx := make(map[band]int)
	var t SLOTag
	err := parseBandEntries("slo", val, "p50:2h,p90:24h", "target", func(part string, k band, target string) error {
		c := SLOClass{Quantile: k.Quantile, IsUser: k.IsUser, User: k.User, Default: k.Default}
		switch {
		case target == "none":
			// Explicit best-effort: a zero target. Combining none with a
			// real target — or repeating it — for the same band is
			// contradictory, like any other duplicate declaration.
			if i, seen := idx[k]; seen {
				if t.Classes[i].Target.IsZero() {
					return fmt.Errorf("slo entry %q: band declared best-effort twice", part)
				}
				return fmt.Errorf("slo entry %q: band already has a target", part)
			}
		case strings.HasSuffix(target, "x"):
			f, err := strconv.ParseFloat(target[:len(target)-1], 64)
			if err != nil || f < 1 || math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("slo entry %q: want a finite slowdown multiple >= 1 (e.g. 8x)", part)
			}
			c.Target.Slowdown = f
		default:
			d, err := sched.ParseDur(target)
			if err != nil {
				return fmt.Errorf("slo entry %q: %w", part, err)
			}
			if d < 1 {
				return fmt.Errorf("slo entry %q: wait target must be positive", part)
			}
			c.Target.Wait = d
		}
		i, seen := idx[k]
		if !seen {
			idx[k] = len(t.Classes)
			t.Classes = append(t.Classes, c)
			return nil
		}
		prev := &t.Classes[i]
		if prev.Target.IsZero() && !c.Target.IsZero() {
			return fmt.Errorf("slo entry %q: band already declared best-effort", part)
		}
		if (c.Target.Wait > 0 && prev.Target.Wait > 0) ||
			(c.Target.Slowdown > 0 && prev.Target.Slowdown > 0) {
			return fmt.Errorf("slo entry %q: duplicate target kind for this band", part)
		}
		if c.Target.Wait > 0 {
			prev.Target.Wait = c.Target.Wait
		}
		if c.Target.Slowdown > 0 {
			prev.Target.Slowdown = c.Target.Slowdown
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := t.validate(); err != nil {
		return nil, fmt.Errorf("slo=%s: %w", val, err)
	}
	return t, nil
}
