package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/fairshare"
	"fairsched/internal/scenario"
	"fairsched/internal/swf"
	"fairsched/internal/workload"
)

// TestMain lets a test run this binary as the CLI: with FAIRSCHED_CLI_ARGS
// set, the test binary runs main on those arguments instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FAIRSCHED_CLI_ARGS"); ok {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the CLI on args and returns its exit status and stderr.
func runCLI(t *testing.T, args string) (int, string) {
	t.Helper()
	code, _, stderr := runCLIOutput(t, args)
	return code, stderr
}

// runCLIOutput runs the CLI on args and returns its exit status, stdout
// and stderr.
func runCLIOutput(t *testing.T, args string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "FAIRSCHED_CLI_ARGS="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestBadDecayFlagsExitTwo: an out-of-range or NaN fairshare flag is a
// usage error naming the flag, not a run under the default (or NaN) decay.
func TestBadDecayFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"decay", "0"}, {"decay", "-0.5"}, {"decay", "2"}, {"decay", "NaN"}, {"decay", "+Inf"},
	} {
		code, stderr := runCLI(t, "-scale 0.02 -nodes 100 -policy list.fairshare -"+tc.flag+" "+tc.value)
		if code != 2 || !strings.Contains(stderr, "-"+tc.flag+":") {
			t.Errorf("-%s %s: exit %d, stderr %q; want exit 2 naming the flag", tc.flag, tc.value, code, stderr)
		}
	}
	if code, stderr := runCLI(t, "-scale 0.02 -nodes 100 -policy list.fairshare -decay 1"); code != 0 {
		t.Errorf("-decay 1: exit %d, stderr %q", code, stderr)
	}
}

// TestPolicyTopologyClashFailsBeforeAnyCell: a policy the topology cannot
// run is one error, raised before any workload loads — no failed-cell
// campaign table on stdout.
func TestPolicyTopologyClashFailsBeforeAnyCell(t *testing.T) {
	code, stdout, stderr := runCLIOutput(t, "-scale 0.02 -nodes 100 -topology queue=x,queue=y -policy order=edf+bf=easy")
	if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, `"order=edf+bf=easy"`) {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1, no stdout and one stderr line naming the policy", code, stdout, stderr)
	}
}

// TestSeedsSelectsCampaignMode: -seeds N is the campaign seed count, so it
// runs N cells and is refused next to the single-trace artifacts, like
// every other campaign flag.
func TestSeedsSelectsCampaignMode(t *testing.T) {
	base := "-scale 0.02 -nodes 100 -parallel 1 -seeds 2"
	for _, extra := range []string{"-metrics", "-markdown", "-csv " + t.TempDir()} {
		code, stdout, stderr := runCLIOutput(t, base+" "+extra)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "not supported in campaign mode") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 refusing it in campaign mode", extra, code, stdout, stderr)
		}
	}
	code, stdout, stderr := runCLIOutput(t, base+" -policy fcfs")
	if code != 0 || !strings.Contains(stdout, "campaign: 2 cells × 1 policies") {
		t.Errorf("exit %d, stderr %q, stdout %q; want a two-cell campaign", code, stderr, stdout)
	}
	if code, stderr := runCLI(t, "-seeds -1"); code != 2 || !strings.Contains(stderr, "-seeds:") {
		t.Errorf("-seeds -1: exit %d, stderr %q; want exit 2 naming the flag", code, stderr)
	}
}

// TestInTraceSizeFallsBackToMaxProcs: a trace header without MaxNodes
// declares its machine through MaxProcs, so an -in report for a trace whose
// MaxNodes equals MaxProcs matches the report for the same trace with the
// MaxNodes line removed.
func TestInTraceSizeFallsBackToMaxProcs(t *testing.T) {
	jobs, err := workload.Generate(workload.Config{Seed: 42, Scale: 0.02, SystemSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := swf.Write(&buf, swf.FromJobs(jobs, swf.Header{Version: 2, MaxNodes: 256, MaxProcs: 256})); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	stripped := regexp.MustCompile(`(?m)^; MaxNodes: 256\n`).ReplaceAllString(full, "")
	if stripped == full {
		t.Fatal("the written trace has no MaxNodes line to remove")
	}
	report := func(trace string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "t.swf") // one base name, so reports can only differ by size
		if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runCLIOutput(t, "-in "+path+" -parallel 1")
		if code != 0 {
			t.Fatalf("-in exited %d: %s", code, stderr)
		}
		return stdout
	}
	if a, b := report(full), report(stripped); a != b {
		t.Errorf("-in report differs once the MaxNodes line is removed:\n--- MaxNodes 256 ---\n%s\n--- MaxProcs only ---\n%s", a, b)
	}
}

// TestSinglePolicyTraceRunMatchesExecute: -policy P -in T is the
// single-policy run. Its report is one cell with one row, and that row
// reads core.Execute's summary for the trace under the machine size of
// scenario.SystemSize and the fairshare epoch of fairshare.EpochFor. The
// trace starts 5h past midnight, so the epoch is not zero; at this scale a
// run with epoch 0 reads a different row.
func TestSinglePolicyTraceRunMatchesExecute(t *testing.T) {
	const policy = "consdyn.nomax"
	gen, err := workload.Generate(workload.Config{Seed: 7, Scale: 0.05, SystemSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	header := swf.Header{Version: 2, MaxNodes: 256, MaxProcs: 256, UnixStartTime: 1038700800 + 5*3600}
	var buf bytes.Buffer
	if err := swf.Write(&buf, swf.FromJobs(gen, header)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.swf")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	wl, err := scenario.TraceFile(path).Load(0)
	if err != nil {
		t.Fatal(err)
	}
	study := core.StudyConfig{
		SystemSize:     scenario.SystemSize(wl.Jobs, 0, wl.SystemSize),
		Fairshare:      fairshare.Config{DecayFactor: 0.5},
		FairshareEpoch: fairshare.EpochFor(wl.UnixStartTime, 0),
	}
	if study.FairshareEpoch == 0 {
		t.Fatal("the trace's start is aligned to the decay interval; the epoch goes untested")
	}
	spec, err := core.SpecByKey(policy)
	if err != nil {
		t.Fatal(err)
	}
	run, err := core.Execute(study, spec, wl.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := run.Summary
	// RenderCampaign's row format, at its minimum policy-column width.
	want := fmt.Sprintf("  %-*s %12.2f %12.2f %8.3f %9.1f %12.2f", 22, policy,
		s.AvgWait/3600, s.AvgTurnaround/3600, s.Utilization, s.PercentUnfair, s.AvgMissTime/3600)

	code, stdout, stderr := runCLIOutput(t, "-policy "+policy+" -in "+path+" -parallel 1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "CAMPAIGN — 1 cells\n") {
		t.Fatalf("want a one-cell report, got:\n%s", stdout)
	}
	var rows []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "  policy ") {
			rows = append(rows, line)
		}
	}
	if len(rows) != 1 || rows[0] != want {
		t.Errorf("rows %q; want exactly %q", rows, want)
	}
	cellHeader := fmt.Sprintf("t.swf × baseline (seed 42) — %d jobs on %d nodes", len(wl.Jobs), study.SystemSize)
	if !strings.Contains(stdout, cellHeader) {
		t.Errorf("report lacks the cell header %q:\n%s", cellHeader, stdout)
	}
}
