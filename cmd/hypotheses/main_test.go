package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run this binary as the CLI: with FAIRSCHED_CLI_ARGS
// set, the test binary runs main on those arguments instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FAIRSCHED_CLI_ARGS"); ok {
		os.Args = append([]string{"hypotheses"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the CLI on args and returns its exit status and stderr.
func runCLI(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "FAIRSCHED_CLI_ARGS="+args)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestBadDecayFlagsExitTwo: an out-of-range or NaN fairshare flag is a
// usage error naming the flag, not a run under the default (or NaN) decay.
func TestBadDecayFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"decay", "0"}, {"decay", "-0.5"}, {"decay", "2"}, {"decay", "NaN"}, {"decay", "+Inf"},
	} {
		code, stderr := runCLI(t, "-scale 0.02 -nodes 100 -seeds 42 -claim fig8-fair-reduces-unfair -"+tc.flag+" "+tc.value)
		if code != 2 || !strings.Contains(stderr, "-"+tc.flag+":") {
			t.Errorf("-%s %s: exit %d, stderr %q; want exit 2 naming the flag", tc.flag, tc.value, code, stderr)
		}
	}
	// A refuted claim exits 1 at this scale; only a usage error is wrong.
	if code, stderr := runCLI(t, "-scale 0.02 -nodes 100 -seeds 42 -claim fig8-fair-reduces-unfair -decay 1"); code == 2 {
		t.Errorf("-decay 1: exit %d, stderr %q", code, stderr)
	}
}
