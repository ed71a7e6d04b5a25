package swf

import (
	"errors"
	"strings"
	"testing"

	"fairsched/internal/job"
)

const sampleTrace = `; Version: 2
; Computer: Sandia CPlant/Ross
; MaxNodes: 1024
; UnixStartTime: 1038700800
; TimeZoneString: UTC
; Note: synthetic sample
1 0 10 600 16 -1 -1 16 900 -1 1 3 1 -1 -1 -1 -1 -1
2 30 -1 3600 32 -1 -1 32 7200 -1 1 4 1 -1 -1 -1 -1 -1

3 60 5 1 -1 -1 -1 8 -1 -1 0 5 2 -1 -1 -1 -1 -1
`

func TestParseHeaderDirectives(t *testing.T) {
	tr, err := Parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Header
	if h.Version != 2 {
		t.Errorf("Version = %d", h.Version)
	}
	if h.Computer != "Sandia CPlant/Ross" {
		t.Errorf("Computer = %q", h.Computer)
	}
	if h.MaxNodes != 1024 {
		t.Errorf("MaxNodes = %d", h.MaxNodes)
	}
	if h.UnixStartTime != 1038700800 {
		t.Errorf("UnixStartTime = %d", h.UnixStartTime)
	}
	if h.TimeZone != "UTC" {
		t.Errorf("TimeZone = %q", h.TimeZone)
	}
	if len(h.Note) != 1 || h.Note[0] != "synthetic sample" {
		t.Errorf("Note = %v", h.Note)
	}
	if len(h.Raw) == 0 {
		t.Error("raw directives not preserved")
	}
}

func TestParseRecords(t *testing.T) {
	tr, err := Parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(tr.Records))
	}
	r := tr.Records[0]
	if r.JobNumber != 1 || r.SubmitTime != 0 || r.WaitTime != 10 ||
		r.RunTime != 600 || r.UsedProcs != 16 || r.RequestedTime != 900 ||
		r.UserID != 3 || r.GroupID != 1 {
		t.Errorf("record 0 parsed wrong: %+v", r)
	}
	if tr.Records[1].WaitTime != -1 {
		t.Error("missing value should stay -1")
	}
}

func TestParseRejectsWrongFieldCount(t *testing.T) {
	_, err := Parse(strings.NewReader("1 2 3\n"))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want ParseError, got %v", err)
	}
	if pe.Line != 1 {
		t.Errorf("line = %d, want 1", pe.Line)
	}
	if !strings.Contains(err.Error(), "18 fields") {
		t.Errorf("error %q should mention field count", err)
	}
}

func TestParseRejectsNonNumeric(t *testing.T) {
	line := "x 0 0 1 1 -1 -1 1 1 -1 1 1 1 -1 -1 -1 -1 -1\n"
	_, err := Parse(strings.NewReader(line))
	if err == nil {
		t.Fatal("non-numeric field accepted")
	}
}

func TestParseErrorReportsLaterLineNumbers(t *testing.T) {
	input := sampleTrace + "bad line here\n"
	_, err := Parse(strings.NewReader(input))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want ParseError, got %v", err)
	}
	if pe.Line != 11 {
		t.Errorf("line = %d, want 11", pe.Line)
	}
}

func TestParseAcceptsFloatFields(t *testing.T) {
	line := "1 0.0 10.5 600.9 16 -1 -1 16 900 -1 1 3 1 -1 -1 -1 -1 -1\n"
	tr, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Records[0].RunTime != 600 {
		t.Errorf("float run time truncated to %d, want 600", tr.Records[0].RunTime)
	}
}

// readJobs is ReadJobs over a string, failing the test on a read error.
func readJobs(t *testing.T, input string, opts ConvertOptions) ([]*job.Job, *Header) {
	t.Helper()
	jobs, h, err := ReadJobs(strings.NewReader(input), opts)
	if err != nil {
		t.Fatal(err)
	}
	return jobs, h
}

func TestJobsConversionRules(t *testing.T) {
	jobs, _ := readJobs(t, sampleTrace, ConvertOptions{})
	if len(jobs) != 3 {
		t.Fatalf("got %d jobs, want 3", len(jobs))
	}
	// Record 3: zero runtime clamps to 1, missing requested time falls back
	// to runtime, requested procs used even when used procs missing.
	j3 := jobs[2]
	if j3.Runtime != 1 {
		t.Errorf("runtime = %d, want clamp to 1", j3.Runtime)
	}
	if j3.Estimate != 1 {
		t.Errorf("estimate = %d, want runtime fallback", j3.Estimate)
	}
	if j3.Nodes != 8 {
		t.Errorf("nodes = %d, want requested procs 8", j3.Nodes)
	}
}

func TestJobsDropsRecordsWithoutNodes(t *testing.T) {
	line := "1 0 0 60 -1 -1 -1 -1 60 -1 1 1 1 -1 -1 -1 -1 -1\n"
	if jobs, _ := readJobs(t, line, ConvertOptions{}); len(jobs) != 0 {
		t.Fatalf("job without node count kept: %d", len(jobs))
	}
}

func TestJobsSortedBySubmit(t *testing.T) {
	input := "2 500 0 60 4 -1 -1 4 60 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"1 100 0 60 4 -1 -1 4 60 -1 1 1 1 -1 -1 -1 -1 -1\n"
	jobs, _ := readJobs(t, input, ConvertOptions{})
	if jobs[0].ID != 1 || jobs[1].ID != 2 {
		t.Fatalf("jobs not sorted by submit: %v %v", jobs[0], jobs[1])
	}
}

func TestJobsNegativeSubmitClampedToZero(t *testing.T) {
	line := "1 -5 0 60 4 -1 -1 4 60 -1 1 1 1 -1 -1 -1 -1 -1\n"
	jobs, _ := readJobs(t, line, ConvertOptions{})
	if got := jobs[0].Submit; got != 0 {
		t.Fatalf("submit = %d, want 0", got)
	}
}

// Regression: "; Version:" (a directive with an empty value) used to panic
// on strings.Fields(val)[0]. Real archive headers do contain such lines.
func TestHeaderDirectiveEmptyValue(t *testing.T) {
	input := "; Version:\n; MaxNodes:\n; MaxProcs:\n; UnixStartTime:\n" +
		"; Computer:\n; TimeZoneString:\n; Note:\n;:\n; :  \n"
	tr, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Header
	if h.Version != 0 || h.MaxNodes != 0 || h.MaxProcs != 0 || h.UnixStartTime != 0 {
		t.Errorf("empty directives should leave zero values: %+v", h)
	}
}

func TestHeaderVersionWithTrailingProse(t *testing.T) {
	tr, err := Parse(strings.NewReader("; Version: 2.2 (described at ...)\n; MaxNodes: 128 nodes\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Version != 2 {
		t.Errorf("Version = %d, want 2", tr.Header.Version)
	}
	if tr.Header.MaxNodes != 128 {
		t.Errorf("MaxNodes = %d, want 128", tr.Header.MaxNodes)
	}
}

// Only the version tolerates a fractional value; a malformed "MaxNodes:
// 1.5" must stay zero (becoming 1 would shrink the system size and reject
// every multi-node job downstream).
func TestHeaderFractionalNonVersionDirectivesRejected(t *testing.T) {
	tr, err := Parse(strings.NewReader("; MaxNodes: 1.5\n; MaxProcs: 2.9\n; UnixStartTime: 99.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Header
	if h.MaxNodes != 0 || h.MaxProcs != 0 || h.UnixStartTime != 0 {
		t.Errorf("fractional directives should stay zero: %+v", h)
	}
}

// A header without MaxNodes declares its machine through MaxProcs, the
// same rule every trace loader follows.
func TestReadJobsSizeFallsBackToMaxProcs(t *testing.T) {
	trace := "; Version: 2\n; MaxProcs: 64\n" +
		"1 0 0 100 4 -1 -1 4 200 -1 1 3 1 -1 -1 -1 -1 -1\n"
	jobs, h := readJobs(t, trace, ConvertOptions{})
	if size := h.SystemSize(); size != 64 || len(jobs) != 1 {
		t.Fatalf("MaxProcs-only header: size=%d jobs=%d, want 64 and 1", size, len(jobs))
	}
}

func TestJobsDropsCancelledRecords(t *testing.T) {
	// Record 2 is cancelled (status 5) but carries a plausible node count
	// and runtime; it must not be simulated as real work by default.
	input := "1 0 0 60 4 -1 -1 4 60 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"2 10 0 60 4 -1 -1 4 60 -1 5 1 1 -1 -1 -1 -1 -1\n"
	jobs, _ := readJobs(t, input, ConvertOptions{})
	if len(jobs) != 1 || jobs[0].ID != 1 {
		t.Fatalf("cancelled record kept: %v", jobs)
	}
	old, _ := readJobs(t, input, ConvertOptions{KeepCancelled: true})
	if len(old) != 2 {
		t.Fatalf("KeepCancelled dropped records: %v", old)
	}
}

func TestHeaderCommentWithoutColonBecomesNote(t *testing.T) {
	tr, err := Parse(strings.NewReader("; just a remark\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Header.Note) != 1 || tr.Header.Note[0] != "just a remark" {
		t.Fatalf("Note = %v", tr.Header.Note)
	}
}
