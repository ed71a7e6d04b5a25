package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"fairsched/internal/sched"
	"fairsched/internal/slo"
)

// Builtins are the named scenarios every campaign can reference directly;
// Parse also accepts ad-hoc transform chains (see its grammar).
func Builtins() []Scenario {
	return []Scenario{
		Baseline(),
		{
			Name:        "load-scaled",
			Description: "arrivals compressed 1.2x (20% higher offered load)",
			Transforms:  []Transform{LoadScale{Factor: 1.2}},
		},
		{
			Name:        "load-relaxed",
			Description: "arrivals dilated to 80% of the original offered load",
			Transforms:  []Transform{LoadScale{Factor: 0.8}},
		},
		{
			Name:        "window-sliced",
			Description: "first four weeks of the trace only",
			Transforms:  []Transform{Window{Start: 0, End: 4 * weekSeconds}},
		},
		{
			Name:        "estimate-perturbed",
			Description: "wall-clock limits redrawn from the f-model with f=3",
			Transforms:  []Transform{PerturbEstimates{F: 3}},
		},
		{
			Name:        "heavy-users",
			Description: "only the eight heaviest users by processor-seconds",
			Transforms:  []Transform{UserFilter{Top: 8}},
		},
		{
			Name:        "burst",
			Description: "200 8-node 1-hour jobs from a new user burst in over hour one of day 7",
			Transforms: []Transform{BurstInject{
				At: 7 * daySeconds, Count: 200, Nodes: 8,
				Runtime: 3600, Spread: 3600, User: -1,
			}},
		},
		{
			Name:        "population-100k",
			Description: "generated population: 100k users in 4 cohorts, 25k jobs over 4 weeks",
			Transforms:  []Transform{sizedPop(100_000, 25_000)},
		},
		{
			Name:        "population-1m",
			Description: "generated population: 1m users in 4 cohorts, 50k jobs over 4 weeks",
			Transforms:  []Transform{sizedPop(1_000_000, 50_000)},
		},
		{
			Name:        "slo-tiered",
			Description: "per-user wait SLOs: lightest half 2h, next 40% 24h, heaviest 10% 96h",
			Transforms: []Transform{SLOTag{Classes: []SLOClass{
				{Quantile: 50, Target: slo.Target{Wait: 2 * 3600}},
				{Quantile: 90, Target: slo.Target{Wait: 24 * 3600}},
				{Default: true, Target: slo.Target{Wait: 96 * 3600}},
			}}},
		},
	}
}

// sizedPop is the default population scaled to a user/job budget.
func sizedPop(users, jobs int) Pop {
	p := DefaultPop()
	p.Users, p.Jobs = users, jobs
	return p
}

// Get resolves a builtin scenario by name.
func Get(name string) (Scenario, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Names lists the builtin scenario names in registry order.
func Names() []string {
	bs := Builtins()
	out := make([]string, len(bs))
	for i, s := range bs {
		out[i] = s.Name
	}
	return out
}

// Parse resolves a scenario spec: a builtin name, or an ad-hoc chain of
// transforms joined with "+". Each transform is key=value:
//
//	load=1.5                           arrival compression (offered-load multiplier)
//	window=1d..8d                      time slice (units s, m, h, d, w; open end allowed)
//	users=top8  |  users=3.7.11        user subset (top-K by proc-seconds, or ids joined with .)
//	burst=at:7d.jobs:200.nodes:8.runtime:1h[.spread:1h][.est:2h][.user:42]
//	perturb=3                          f-model estimate accuracy
//	slo=p50:2h,p90:24h,default:96h     per-user SLO targets (quantile bands by
//	                                   proc-seconds, default band, user<id>:
//	                                   overrides; duration = wait target,
//	                                   <f>x = slowdown target, none = best effort)
//	queue=p50:org/a,default:org/b      route users to queue-tree leaves (same
//	                                   band grammar; destinations are queue paths)
//	partition=p50:fast,default:slow    route users to partitions directly
//	pop=users:100k,cohorts:8,churn:0.5 replace the workload with a generated
//	                                   population (keys users, jobs, cohorts,
//	                                   weeks, churn, zipf, alpha, diurnal,
//	                                   weekly, maxnodes; counts take k/m
//	                                   suffixes; omitted keys default)
//
// Example: "load=1.5+perturb=3" compresses arrivals and degrades estimates.
func Parse(spec string) (Scenario, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Scenario{}, fmt.Errorf("scenario: empty spec")
	}
	if s, ok := Get(spec); ok {
		return s, nil
	}
	s := Scenario{Name: spec, Description: "ad-hoc: " + spec}
	for _, part := range strings.Split(spec, "+") {
		tr, err := parseTransform(strings.TrimSpace(part))
		if err != nil {
			return Scenario{}, fmt.Errorf("scenario %q: %w", spec, err)
		}
		s.Transforms = append(s.Transforms, tr)
	}
	return s, nil
}

// ParseTransform parses one key=value transform spec (the -window CLI flag
// feeds bare window bounds through this).
func ParseTransform(part string) (Transform, error) { return parseTransform(part) }

func parseTransform(part string) (Transform, error) {
	key, val, ok := strings.Cut(part, "=")
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (builtins: %s; or a key=value transform chain)",
			part, strings.Join(Names(), ", "))
	}
	key = strings.TrimSpace(key)
	val = strings.TrimSpace(val)
	switch key {
	case "load":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("load=%q: want a positive factor", val)
		}
		return LoadScale{Factor: f}, nil
	case "window":
		from, to, ok := strings.Cut(val, "..")
		if !ok {
			return nil, fmt.Errorf("window=%q: want START..END (END may be empty)", val)
		}
		w := Window{}
		var err error
		if w.Start, err = sched.ParseDur(from); err != nil {
			return nil, fmt.Errorf("window start: %w", err)
		}
		if strings.TrimSpace(to) != "" {
			if w.End, err = sched.ParseDur(to); err != nil {
				return nil, fmt.Errorf("window end: %w", err)
			}
		}
		return w, nil
	case "users":
		if rest, ok := strings.CutPrefix(val, "top"); ok {
			n, err := strconv.Atoi(rest)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("users=%q: want topK with K >= 1", val)
			}
			return UserFilter{Top: n}, nil
		}
		var ids []int
		for _, p := range strings.Split(val, ".") {
			id, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("users=%q: bad id %q", val, p)
			}
			ids = append(ids, id)
		}
		return UserFilter{Users: ids}, nil
	case "burst":
		return parseBurst(val)
	case "perturb":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("perturb=%q: want an f-model factor >= 0", val)
		}
		return PerturbEstimates{F: f}, nil
	case "slo":
		return parseSLO(val)
	case "queue", "partition":
		return parsePlacement(key, val)
	case "pop":
		return ParsePop(val)
	}
	return nil, fmt.Errorf("unknown transform %q (want load, window, users, burst, perturb, slo, queue, partition or pop)", key)
}

func parseBurst(val string) (Transform, error) {
	b := BurstInject{User: -1}
	for _, p := range strings.Split(val, ".") {
		k, v, ok := strings.Cut(p, ":")
		if !ok {
			return nil, fmt.Errorf("burst param %q: want key:value", p)
		}
		var err error
		switch k {
		case "at":
			b.At, err = sched.ParseDur(v)
		case "jobs":
			b.Count, err = strconv.Atoi(v)
		case "nodes":
			b.Nodes, err = strconv.Atoi(v)
		case "runtime":
			b.Runtime, err = sched.ParseDur(v)
		case "est":
			b.Estimate, err = sched.ParseDur(v)
		case "spread":
			b.Spread, err = sched.ParseDur(v)
		case "user":
			b.User, err = strconv.Atoi(v)
		default:
			return nil, fmt.Errorf("burst param %q unknown (want at, jobs, nodes, runtime, est, spread, user)", k)
		}
		if err != nil {
			return nil, fmt.Errorf("burst param %q: %w", p, err)
		}
	}
	return b, nil
}

const (
	daySeconds  = 24 * 3600
	weekSeconds = 7 * daySeconds
)

// fmtDur renders seconds compactly for transform names (exact multiples of
// a unit use the unit; everything else stays in seconds).
func fmtDur(sec int64) string {
	switch {
	case sec != 0 && sec%weekSeconds == 0:
		return fmt.Sprintf("%dw", sec/weekSeconds)
	case sec != 0 && sec%daySeconds == 0:
		return fmt.Sprintf("%dd", sec/daySeconds)
	case sec != 0 && sec%3600 == 0:
		return fmt.Sprintf("%dh", sec/3600)
	case sec != 0 && sec%60 == 0:
		return fmt.Sprintf("%dm", sec/60)
	default:
		return fmt.Sprintf("%ds", sec)
	}
}
