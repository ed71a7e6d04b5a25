package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"fairsched/internal/job"
	"fairsched/internal/workload"
)

// Pop generates a population-scale workload (workload.GeneratePopulation),
// replacing whatever jobs entered the chain — it is a generator in transform
// clothing, so `pop=...` slots into the same scenario grammar, campaign
// axes and fuzz coverage as every other axis. The draw is seeded from the
// scenario RNG, so the campaign seed axis varies the population itself,
// exactly like the Synthetic source.
//
// Fields mirror the aggregate knobs of workload.PopConfig (explicit cohort
// mixes stay a library-level feature; the grammar exposes the derived-cohort
// form).
type Pop struct {
	Users   int
	Jobs    int
	Cohorts int
	Weeks   int
	Churn   float64
	Zipf    float64
	Alpha   float64
	Diurnal float64
	Weekly  float64
	// MaxNodes caps job widths and is the generated workload's declared
	// system size (a campaign's explicit -nodes still overrides downstream).
	MaxNodes int
}

// DefaultPop is the grammar's base point: every parse starts here and
// overrides only the keys present, so `pop=` alone is a valid 10^4-user
// population.
func DefaultPop() Pop {
	return Pop{
		Users: 10_000, Jobs: 20_000, Cohorts: 4, Weeks: 4,
		Churn: 0.25, Zipf: 1.3, Alpha: 1.1, Diurnal: 0.6, Weekly: 0.5,
		MaxNodes: 64,
	}
}

// Name renders every field in fixed order, so two Pops are equal iff their
// names are equal and a re-parse of the name is the identity (the fuzz
// stability property).
func (t Pop) Name() string {
	return "pop=" + strings.Join([]string{
		"users:" + fmtCount(t.Users),
		"jobs:" + fmtCount(t.Jobs),
		"cohorts:" + strconv.Itoa(t.Cohorts),
		"weeks:" + strconv.Itoa(t.Weeks),
		"churn:" + fmtF(t.Churn),
		"zipf:" + fmtF(t.Zipf),
		"alpha:" + fmtF(t.Alpha),
		"diurnal:" + fmtF(t.Diurnal),
		"weekly:" + fmtF(t.Weekly),
		"maxnodes:" + strconv.Itoa(t.MaxNodes),
	}, ",")
}

// Config materializes the transform as a workload.PopConfig drawing with
// seed (cmd/workloadgen's -pop mode builds its configs through this too).
// The generated workload's declared system size is MaxNodes, so widths fill
// it; a campaign's own system size still governs the simulation.
func (t Pop) Config(seed int64) workload.PopConfig {
	return workload.PopConfig{
		Seed:       seed,
		SystemSize: t.MaxNodes,
		Weeks:      t.Weeks,
		Users:      t.Users,
		Jobs:       t.Jobs,
		NumCohorts: t.Cohorts,
		Churn:      t.Churn,
		Zipf:       t.Zipf,
		Alpha:      t.Alpha,
		Diurnal:    t.Diurnal,
		Weekly:     t.Weekly,
		MaxNodes:   t.MaxNodes,
	}
}

// Apply generates the population, discarding the incoming jobs. The output
// is already sorted by (submit, id) — StreamPopulation emits in submit
// order and numbers ids in emission order.
func (t Pop) Apply(jobs []*job.Job, rng *rand.Rand) ([]*job.Job, error) {
	return workload.GeneratePopulation(t.Config(rng.Int63()))
}

// validate bounds every field so a parsed Pop is always generatable; checks
// are written in accept-form so NaN fails them.
func (t Pop) validate() error {
	if !(t.Users >= 1 && t.Users <= workload.MaxPopUsers) {
		return fmt.Errorf("users %d out of range [1, %d]", t.Users, workload.MaxPopUsers)
	}
	if !(t.Jobs >= 1 && t.Jobs <= workload.MaxPopJobs) {
		return fmt.Errorf("jobs %d out of range [1, %d]", t.Jobs, workload.MaxPopJobs)
	}
	if !(t.Cohorts >= 1 && t.Cohorts <= workload.MaxPopCohorts) {
		return fmt.Errorf("cohorts %d out of range [1, %d]", t.Cohorts, workload.MaxPopCohorts)
	}
	if !(t.Weeks >= 1 && t.Weeks <= workload.MaxPopWeeks) {
		return fmt.Errorf("weeks %d out of range [1, %d]", t.Weeks, workload.MaxPopWeeks)
	}
	if !(t.Churn >= 0 && t.Churn <= 52) {
		return fmt.Errorf("churn %v out of range [0, 52]", t.Churn)
	}
	if !(t.Zipf > 1 && t.Zipf <= 8) {
		return fmt.Errorf("zipf %v out of range (1, 8]", t.Zipf)
	}
	if !(t.Alpha > 0.05 && t.Alpha <= 8) {
		return fmt.Errorf("alpha %v out of range (0.05, 8]", t.Alpha)
	}
	if !(t.Diurnal >= 0 && t.Diurnal <= 1) {
		return fmt.Errorf("diurnal %v out of range [0, 1]", t.Diurnal)
	}
	if !(t.Weekly >= 0 && t.Weekly <= 1) {
		return fmt.Errorf("weekly %v out of range [0, 1]", t.Weekly)
	}
	if !(t.MaxNodes >= 1 && t.MaxNodes <= 1<<20) {
		return fmt.Errorf("maxnodes %d out of range [1, %d]", t.MaxNodes, 1<<20)
	}
	return nil
}

// ParsePop parses the value of a pop= spec: comma-separated key:value
// overrides on DefaultPop (empty value = all defaults). Counts accept k/m
// suffixes (users:100k, users:1m).
func ParsePop(val string) (Pop, error) {
	t := DefaultPop()
	if strings.TrimSpace(val) != "" {
		for _, p := range strings.Split(val, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(p), ":")
			if !ok {
				return Pop{}, fmt.Errorf("pop param %q: want key:value", p)
			}
			var err error
			switch k {
			case "users":
				t.Users, err = parseCount(v)
			case "jobs":
				t.Jobs, err = parseCount(v)
			case "cohorts":
				t.Cohorts, err = strconv.Atoi(v)
			case "weeks":
				t.Weeks, err = strconv.Atoi(v)
			case "churn":
				t.Churn, err = strconv.ParseFloat(v, 64)
			case "zipf":
				t.Zipf, err = strconv.ParseFloat(v, 64)
			case "alpha":
				t.Alpha, err = strconv.ParseFloat(v, 64)
			case "diurnal":
				t.Diurnal, err = strconv.ParseFloat(v, 64)
			case "weekly":
				t.Weekly, err = strconv.ParseFloat(v, 64)
			case "maxnodes":
				t.MaxNodes, err = strconv.Atoi(v)
			default:
				return Pop{}, fmt.Errorf("pop param %q unknown (want users, jobs, cohorts, weeks, churn, zipf, alpha, diurnal, weekly, maxnodes)", k)
			}
			if err != nil {
				return Pop{}, fmt.Errorf("pop param %q: %w", p, err)
			}
		}
	}
	if err := t.validate(); err != nil {
		return Pop{}, fmt.Errorf("pop=%q: %w", val, err)
	}
	return t, nil
}

// parseCount parses an integer with an optional k (10^3) or m (10^6)
// suffix, rejecting a value that overflows int instead of wrapping (range
// checks are Pop.validate's).
func parseCount(s string) (int, error) {
	s = strings.TrimSpace(s)
	orig := s
	mult := 1
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k':
			mult, s = 1_000, s[:n-1]
		case 'm':
			mult, s = 1_000_000, s[:n-1]
		}
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad count %q (want e.g. 5000, 100k, 1m)", s)
	}
	if n > math.MaxInt/mult || n < math.MinInt/mult {
		return 0, fmt.Errorf("count %q overflows", orig)
	}
	return n * mult, nil
}

// fmtCount renders a count with the largest exact suffix, inverse of
// parseCount on canonical output.
func fmtCount(n int) string {
	switch {
	case n != 0 && n%1_000_000 == 0:
		return strconv.Itoa(n/1_000_000) + "m"
	case n != 0 && n%1_000 == 0:
		return strconv.Itoa(n/1_000) + "k"
	default:
		return strconv.Itoa(n)
	}
}

// fmtF renders a float canonically for transform names. 'f' (never 'g'):
// an exponent's '+' would re-split the transform chain.
func fmtF(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }
