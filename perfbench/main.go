// Command perfbench is the repository's benchmark. It runs one workload —
// a sweep.Campaign over inputs generated from -seed — for -seconds of
// repeated passes, checks every run's output, and prints the end-to-end
// metrics (-trace 0) or the per-layer split of a traced run (-trace 1). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 36, "failed": 0, "metrics": {"wall_s": {"value": 2.41, "unit": "s"}, ...}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper-study --seed 42 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload slo-campaign --trace 1
//	bash perfbench/run.sh --steady 5 --seconds 30            # every workload, seeds 42..46
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median.
const setupReps = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// tableOnly holds metrics printed in the table, not in the JSON line,
	// whose metrics are the same on every workload: the unscaled times
	// behind the end-to-end ones, and the per-layer metrics of layers only
	// some workloads run.
	tableOnly map[string]metric
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-study, population-1m or slo-campaign")
		seed    = flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		steady  = flag.Int("steady", 0, "repeat each workload (or -workload) this many times with seeds -seed, -seed+1, ... and print each metric's median and quartile spread")
	)
	flag.Parse()
	budget := time.Duration(*seconds * float64(time.Second))
	if *steady > 0 {
		if err := runSteady(*name, *steady, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	res, err := measure(w, *seed, budget, *trace == 1)
	if err != nil {
		fatal(err)
	}
	table := map[string]metric{}
	for _, ms := range []map[string]metric{res.Metrics, res.tableOnly} {
		for k, m := range ms {
			table[k] = m
		}
	}
	names := make([]string, 0, len(table))
	for k := range table {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %16.6g %s\n", k, table[k].Value, table[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// measure sets a workload up setupReps times, then runs untraced passes for
// the budget (half of it with trace, the other half running traced passes)
// and assembles the metrics. The end-to-end times are scaled to the
// reference host speed (calib.go); the per-layer ones are not.
func measure(w workloadDef, seed int64, budget time.Duration, trace bool) (*result, error) {
	p, err := w.plan(seed)
	if err != nil {
		return nil, err
	}
	var b *bench
	var setups []setupTimes
	for i := 0; i < setupReps; i++ {
		b = nil
		c, _ := calibrate() // collects the previous set-up's inputs first
		inputs, jobs, st, err := setup(p)
		if err != nil {
			return nil, err
		}
		st.calib = c
		b = newBench(p, inputs, jobs)
		setups = append(setups, st)
	}
	runtime.GC()
	if trace {
		budget /= 2
	}
	before := readRuntime()
	passes := repeat(budget, b.run)
	after := readRuntime()
	var traced []pass
	if trace {
		traced = repeat(budget, b.tracedRun)
	}

	res := &result{Metrics: map[string]metric{}, tableOnly: map[string]metric{}}
	want := passes[0].digest
	if seed == defaultSeed {
		want = w.digest
	}
	for _, ps := range [][]pass{passes, traced} {
		for _, p := range ps {
			res.Attempted += p.runs
			if p.digest != want {
				// A pass whose summaries differ from the pinned (or first)
				// digest is wrong as a whole.
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: summary digest %s, want %s\n", w.name, seed, p.digest, want)
				res.Failed += p.runs
			} else {
				res.Failed += p.failed
			}
		}
	}
	res.Correct = res.Failed == 0

	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	wall := medianOf(passes, func(p pass) float64 { return p.wall.Seconds() })
	if !trace {
		scaledWall := medianOf(passes, func(p pass) float64 { return p.scaledWall.Seconds() })
		set("wall_s", "s", scaledWall)
		set("runs_per_s", "runs/s", float64(b.runsPerPass())/scaledWall)
		set("jobs_per_s", "jobs/s", float64(b.jobsPerPass)/scaledWall)
		set("peak_rss_mb", "MiB", peakRSSMiB())
		set("setup_s", "s", medianOf(setups, func(s setupTimes) float64 { return scaled(s.total(), s.calib).Seconds() }))
		set("ok_frac", "ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
		res.tableOnly["unscaled.wall_s"] = metric{wall, "s"}
		res.tableOnly["unscaled.setup_s"] = metric{medianOf(setups, func(s setupTimes) float64 { return s.total().Seconds() }), "s"}
		res.tableOnly["host.slowdown"] = metric{medianOf(passes, func(p pass) float64 { return p.wall.Seconds() / p.scaledWall.Seconds() }), "ratio"}
		return res, nil
	}

	// Per-layer metrics come from the traced pass of median wall time, so
	// its numbers add up: in-cell self times plus the remainder equal the
	// summed cell time, and cells, rendering and idle workers fill
	// wall × workers.
	sort.Slice(traced, func(i, k int) bool { return traced[i].wall < traced[k].wall })
	mp := traced[len(traced)/2]
	l := mp.ledger
	for i, n := range layerNames {
		switch layer(i) {
		case layerSLO:
			if l.calls[i] > 0 {
				res.tableOnly[n+".self_s"] = metric{l.self[i].Seconds(), "s"}
			}
		case layerApply, layerSLOAssign, layerSummarize, layerCheck:
			set(n+"_s", "s", l.self[i].Seconds())
		default:
			set(n+".self_s", "s", l.self[i].Seconds())
		}
	}
	perCall := func(i layer) float64 {
		if l.calls[i] == 0 {
			return 0
		}
		return float64(l.self[i].Nanoseconds()) / float64(l.calls[i])
	}
	set("sched.calls", "count", float64(l.calls[layerSched]))
	set("sched.ns_per_call", "ns", perCall(layerSched))
	set("sched.preemptions", "count", float64(mp.preemptions))
	common := commonPolicyKeys()
	cellsPerPass := float64(len(b.cells()))
	for _, spec := range b.specs {
		m := metric{l.policySelf[spec.Key].Seconds() / cellsPerPass, "s"}
		if common[spec.Key] {
			res.Metrics["sched.policy."+spec.Key+".self_s"] = m
		} else {
			res.tableOnly["sched.policy."+spec.Key+".self_s"] = m
		}
	}
	set("sim.events", "count", float64(l.events))
	nsPerEvent := 0.0
	if l.events > 0 {
		nsPerEvent = float64(l.self[layerSim].Nanoseconds()) / float64(l.events)
	}
	set("sim.ns_per_event", "ns", nsPerEvent)
	set("fairness.hybridfst.ns_per_call", "ns", perCall(layerHybridFST))
	set("workload.generate_s", "s", medianOf(setups, func(s setupTimes) float64 { return s.generate.Seconds() }))
	set("sweep.busy_frac", "ratio", medianOf(passes, func(p pass) float64 {
		return p.busy.Seconds() / (p.wall.Seconds() * float64(b.workers()))
	}))
	set("sweep.cell_s_max", "s", medianOf(passes, func(p pass) float64 { return p.cellMax.Seconds() }))
	set("experiments.render_s", "s", mp.render.Seconds())
	jobs := float64(b.jobsPerPass * len(passes))
	set("go.gc_cpu_frac", "ratio", (after.gcCPU-before.gcCPU)/(after.totalCPU-before.totalCPU))
	set("go.alloc_bytes_per_job", "B/job", (after.allocBytes-before.allocBytes)/jobs)
	set("go.mallocs_per_job", "count/job", (after.mallocs-before.mallocs)/jobs)
	var selfSum time.Duration
	for _, d := range l.self {
		selfSum += d
	}
	set("trace.wall_s", "s", mp.wall.Seconds())
	set("trace.idle_s", "s", (mp.wall*time.Duration(b.workers()) - mp.busy - mp.render).Seconds())
	set("trace.remainder_s", "s", (mp.busy - selfSum).Seconds())
	set("trace.overhead_frac", "ratio", medianOf(traced, func(p pass) float64 { return p.wall.Seconds() })/wall-1)
	return res, nil
}

// repeat runs fn at least once, then again while another pass of the
// average length still fits in the budget.
func repeat(budget time.Duration, fn func() pass) []pass {
	var out []pass
	t0 := time.Now()
	for len(out) == 0 || time.Since(t0)*time.Duration(len(out)+1)/time.Duration(len(out)) <= budget {
		p := fn()
		if p.scaledWall > 0 {
			fmt.Fprintf(os.Stderr, "pass %d: %.3fs (%.3fs scaled)\n", len(out)+1, p.wall.Seconds(), p.scaledWall.Seconds())
		} else {
			fmt.Fprintf(os.Stderr, "pass %d: %.3fs\n", len(out)+1, p.wall.Seconds())
		}
		out = append(out, p)
	}
	return out
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

type runtimeSample struct {
	gcCPU, totalCPU, allocBytes, mallocs float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindFloat64 {
			return v.Float64()
		}
		return float64(v.Uint64())
	}
	return runtimeSample{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value)}
}

// peakRSSMiB is the process's peak resident set, set-up included.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runSteady runs the benchmark n times per workload, each in a fresh
// process with its own seed, and prints every end-to-end metric's median
// and quartile spread, (Q3 - Q1) / median, with quartiles as Python's
// statistics.quantiles(values, n=4) computes them.
func runSteady(only string, n int, seed int64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed+int64(i), err)
			}
			var res result
			if err := json.Unmarshal(lastLine(out), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed+int64(i), err)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d\n", w.name, n, seed, seed+int64(n)-1)
		fmt.Printf("  %-14s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := values[k]
			q1, med, q3 := quartiles(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("  %-14s %14.6g %14.6g %14.6g %7.1f%%  %s\n", k, med, q1, q3, 100*spread, units[k])
		}
	}
	return nil
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with its
// default exclusive method.
func quartiles(data []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
