package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"fairsched/internal/job"
)

// band is the user set one class of a slo=, queue= or partition= tag
// covers: a usage quantile, the default band, or one explicitly named user.
// Exactly one of Quantile (> 0), Default and IsUser is set in a valid band.
//
// Quantile bands rank users by total processor-seconds ascending (ties
// toward the lower user id); user k of n (1-based, as in DESIGN.md §11) has
// percentile 100*k/n (integer division), and belongs to the smallest band
// covering it. Users above every band fall to the default band when
// present, else stay untagged. User overrides apply last and win.
type band struct {
	Quantile int
	IsUser   bool
	User     int
	Default  bool
}

// bandClass is a tag class carrying a band plus its payload (SLOClass,
// PlaceClass).
type bandClass interface{ band() band }

// name renders the class name used in canonical transform names and SLO
// reports.
func (b band) name() string {
	switch {
	case b.Quantile > 0:
		return fmt.Sprintf("p%d", b.Quantile)
	case b.Default:
		return "default"
	default:
		return fmt.Sprintf("user%d", b.User)
	}
}

// rank is the band's canonical sort key: quantile bands ascending, then the
// default band, then user overrides ascending.
func (b band) rank() [2]int {
	switch {
	case b.Quantile > 0:
		return [2]int{0, b.Quantile}
	case b.Default:
		return [2]int{1, 0}
	default:
		return [2]int{2, b.User}
	}
}

// orderBands returns a copy of classes in canonical order (stable, so
// classes sharing a band keep their declaration order).
func orderBands[C bandClass](classes []C) []C {
	out := slices.Clone(classes)
	slices.SortStableFunc(out, func(x, y C) int {
		rx, ry := x.band().rank(), y.band().rank()
		return cmp.Or(cmp.Compare(rx[0], ry[0]), cmp.Compare(rx[1], ry[1]))
	})
	return out
}

// validateBands reports the first problem with a kind= tag's classes: a
// structural one (empty tag, quantile out of range, conflicting or
// duplicate discriminators), else the first error check finds in a class's
// payload.
func validateBands[C bandClass](kind string, classes []C, check func(C) error) error {
	if len(classes) == 0 {
		return fmt.Errorf("%s tag with no classes", kind)
	}
	seen := make(map[[2]int]bool)
	for _, c := range classes {
		b := c.band()
		switch {
		case b.Quantile < 0 || b.Quantile > 100:
			return fmt.Errorf("%s quantile p%d out of range (want 1..100)", kind, b.Quantile)
		case b.Quantile > 0:
			if b.Default || b.IsUser {
				return fmt.Errorf("%s band p%d also marked default or user", kind, b.Quantile)
			}
			if seen[b.rank()] {
				return fmt.Errorf("%s band p%d declared twice", kind, b.Quantile)
			}
		case b.Default:
			if b.IsUser {
				return fmt.Errorf("%s default band also marked as a user override", kind)
			}
			if seen[b.rank()] {
				return fmt.Errorf("%s default band declared twice", kind)
			}
		case b.IsUser:
			if b.User < 0 {
				return fmt.Errorf("%s user override with negative id %d", kind, b.User)
			}
			if seen[b.rank()] {
				return fmt.Errorf("%s user%d override declared twice", kind, b.User)
			}
		default:
			return fmt.Errorf("%s class is neither a quantile band, default nor a user override (set Quantile, Default or IsUser)", kind)
		}
		seen[b.rank()] = true
		if err := check(c); err != nil {
			return err
		}
	}
	return nil
}

// parseBandEntries splits a kind= tag value into comma-separated
// class:payload entries and hands add each entry with its parsed band and
// raw payload. example is shown for an empty value; want names the payload
// for an entry without one.
func parseBandEntries(kind, val, example, want string, add func(entry string, b band, payload string) error) error {
	if strings.TrimSpace(val) == "" {
		return fmt.Errorf("%s=: empty spec (want e.g. %s)", kind, example)
	}
	for _, part := range strings.Split(val, ",") {
		part = strings.TrimSpace(part)
		name, payload, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("%s entry %q: want class:%s", kind, part, want)
		}
		var b band
		switch {
		case name == "default":
			b.Default = true
		case strings.HasPrefix(name, "user"):
			id, err := strconv.Atoi(name[len("user"):])
			if err != nil || id < 0 {
				return fmt.Errorf("%s entry %q: bad user id", kind, part)
			}
			b.IsUser, b.User = true, id
		case strings.HasPrefix(name, "p"):
			q, err := strconv.Atoi(name[1:])
			if err != nil || q < 1 || q > 100 {
				return fmt.Errorf("%s entry %q: want p1..p100", kind, part)
			}
			b.Quantile = q
		default:
			return fmt.Errorf("%s entry %q: class must be p<1..100>, default or user<id>", kind, part)
		}
		if err := add(part, b, payload); err != nil {
			return err
		}
	}
	return nil
}

// assignBands hands every class of ordered (canonical order, as from
// orderBands) the users of jobs it covers, in that order, so user overrides
// come last and win for a caller that tags in call order. An override for a
// user absent from jobs is skipped: the tag describes this workload's
// population.
//
// Band membership needs only the partition of the rank order at each band
// boundary, never the full order: band q covers exactly the
// quantileBoundary(q, n) lightest users not claimed by a smaller band.
// Successive quickselects at the boundary ranks therefore give membership
// identical to a full sort — the (usage, id) order is strict, so "the k
// lightest users" is a unique set — at O(n) instead of O(n log n), which
// matters when bands tag a population-scale user set (DESIGN.md §15).
// Within a band the users come in no particular order.
func assignBands[C bandClass](ordered []C, jobs []*job.Job, tag func(c C, users []int)) {
	usage := userProcSeconds(jobs)
	users := make([]int, 0, len(usage))
	for u := range usage {
		users = append(users, u)
	}
	n := len(users)
	less := func(a, b int) bool {
		if usage[a] != usage[b] {
			return usage[a] < usage[b]
		}
		return a < b
	}
	lo := 0
	for _, c := range ordered {
		switch b := c.band(); {
		case b.Quantile > 0:
			k := quantileBoundary(b.Quantile, n) // >= lo: quantiles ascend
			if k > lo && k < n {
				selectSmallest(users[lo:], k-lo, less)
			}
			tag(c, users[lo:k])
			lo = k
		case b.Default:
			tag(c, users[lo:])
		case b.IsUser:
			if _, present := usage[b.User]; present {
				tag(c, []int{b.User})
			}
		}
	}
}

// quantileBoundary returns how many of n ranked users fall at or below
// quantile q: the largest 1-based rank k with 100*k/n <= q under integer
// division — 100k/n <= q ⟺ 100k < (q+1)n ⟺ k <= ((q+1)n − 1)/100 —
// capped at n.
func quantileBoundary(q, n int) int {
	return min(((q+1)*n-1)/100, n)
}

// selectSmallest partially orders s so s[:k] holds the k smallest elements
// under less (within-segment order unspecified): iterative quickselect with
// a median-of-three pivot, expected O(len(s)). less must be a strict total
// order; 0 < k < len(s).
func selectSmallest(s []int, k int, less func(a, b int) bool) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if less(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if less(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if less(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
		}
		s[mid], s[hi] = s[hi], s[mid]
		pivot := s[hi]
		i := lo
		for j := lo; j < hi; j++ {
			if less(s[j], pivot) {
				s[i], s[j] = s[j], s[i]
				i++
			}
		}
		s[i], s[hi] = s[hi], s[i]
		switch {
		case i == k:
			return
		case i < k:
			lo = i + 1
		default:
			hi = i - 1
		}
	}
}
