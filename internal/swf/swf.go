// Package swf reads and writes the Standard Workload Format version 2, the
// trace format the paper's simulator consumes ("The scheduler takes as input
// a trace file in the Standard Workload Format V2").
//
// An SWF file is line oriented: header/comment lines start with ';' and may
// carry "; Key: Value" directives; every other non-blank line has 18
// whitespace-separated fields:
//
//	1 job number            7 used memory        13 group id
//	2 submit time           8 requested procs    14 executable id
//	3 wait time             9 requested time     15 queue id
//	4 run time             10 requested memory   16 partition id
//	5 used processors      11 status             17 preceding job
//	6 avg cpu time         12 user id            18 think time
//
// Missing values are -1.
package swf

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"fairsched/internal/job"
)

// Header carries the directives we understand plus every raw directive line.
type Header struct {
	Version       int
	Computer      string
	MaxNodes      int
	MaxProcs      int
	UnixStartTime int64
	TimeZone      string
	Note          []string
	// Raw preserves every "; Key: Value" directive in order of appearance.
	Raw []Directive
}

// SystemSize is the declared machine size: MaxNodes, else MaxProcs (0 when
// the header declares neither).
func (h *Header) SystemSize() int {
	if h.MaxNodes > 0 {
		return h.MaxNodes
	}
	return h.MaxProcs
}

// Directive is one "; Key: Value" header line.
type Directive struct {
	Key   string
	Value string
}

// Record is one raw SWF line, all 18 fields.
type Record struct {
	JobNumber      int64
	SubmitTime     int64
	WaitTime       int64
	RunTime        int64
	UsedProcs      int64
	AvgCPUTime     int64
	UsedMemory     int64
	RequestedProcs int64
	RequestedTime  int64
	RequestedMem   int64
	Status         int64
	UserID         int64
	GroupID        int64
	Executable     int64
	QueueID        int64
	PartitionID    int64
	PrecedingJob   int64
	ThinkTime      int64
}

// Trace is a parsed SWF file.
type Trace struct {
	Header  Header
	Records []Record
}

// ParseError reports a malformed line with its 1-based line number.
type ParseError struct {
	Line int
	Err  error
}

func (e *ParseError) Error() string { return fmt.Sprintf("swf: line %d: %v", e.Line, e.Err) }
func (e *ParseError) Unwrap() error { return e.Err }

// Parse reads an SWF trace from r, materializing every record. For
// archive-scale traces that should not be held in memory whole, use Scanner
// (Parse is a thin loop over it).
func Parse(r io.Reader) (*Trace, error) {
	sc := NewScanner(r)
	t := &Trace{}
	for sc.Scan() {
		t.Records = append(t.Records, sc.Record())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	t.Header = *sc.Header()
	return t, nil
}

func (h *Header) addComment(line string) {
	body := strings.TrimSpace(strings.TrimLeft(line, "; "))
	if body == "" {
		return
	}
	key, val, ok := strings.Cut(body, ":")
	if !ok {
		h.Note = append(h.Note, body)
		return
	}
	key = strings.TrimSpace(key)
	val = strings.TrimSpace(val)
	h.Raw = append(h.Raw, Directive{Key: key, Value: val})
	switch strings.ToLower(key) {
	case "version":
		// The value may carry trailing prose ("2.2 (see ...)"); take the
		// first token — and a bare "; Version:" has no token at all, so
		// guard the index (real archive headers do contain empty
		// directives). Only the version tolerates a fractional value.
		if n, ok := leadingInt(integerPart(val)); ok {
			h.Version = int(n)
		}
	case "computer":
		h.Computer = val
	case "maxnodes":
		if n, ok := leadingInt(val); ok {
			h.MaxNodes = int(n)
		}
	case "maxprocs":
		if n, ok := leadingInt(val); ok {
			h.MaxProcs = int(n)
		}
	case "unixstarttime":
		if n, ok := leadingInt(val); ok {
			h.UnixStartTime = n
		}
	case "timezonestring", "timezone":
		h.TimeZone = val
	case "note":
		h.Note = append(h.Note, val)
	}
}

// leadingInt parses the first whitespace-separated token of val as an
// integer. Archive headers routinely trail prose after the number
// ("MaxNodes: 128 nodes") or omit the value entirely ("; MaxNodes:"), so
// every numeric directive goes through this guard — indexing
// strings.Fields(val) directly panics on the empty case. A non-integer
// token is rejected, leaving the field zero ("MaxNodes: 1.5" must not
// become 1).
func leadingInt(val string) (int64, bool) {
	fields := strings.Fields(val)
	if len(fields) == 0 {
		return 0, false
	}
	n, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// integerPart truncates the first token at its first dot, so a fractional
// SWF version ("2.2") resolves to its major number.
func integerPart(val string) string {
	fields := strings.Fields(val)
	if len(fields) == 0 {
		return ""
	}
	tok, _, _ := strings.Cut(fields[0], ".")
	return tok
}

func parseRecord(line string) (Record, error) {
	fields := strings.Fields(line)
	if len(fields) != 18 {
		return Record{}, fmt.Errorf("expected 18 fields, got %d", len(fields))
	}
	var vals [18]int64
	for i, f := range fields {
		v, err := parseField(f)
		if err != nil {
			return Record{}, fmt.Errorf("field %d %q: %v", i+1, f, err)
		}
		vals[i] = v
	}
	return Record{
		JobNumber: vals[0], SubmitTime: vals[1], WaitTime: vals[2],
		RunTime: vals[3], UsedProcs: vals[4], AvgCPUTime: vals[5],
		UsedMemory: vals[6], RequestedProcs: vals[7], RequestedTime: vals[8],
		RequestedMem: vals[9], Status: vals[10], UserID: vals[11],
		GroupID: vals[12], Executable: vals[13], QueueID: vals[14],
		PartitionID: vals[15], PrecedingJob: vals[16], ThinkTime: vals[17],
	}, nil
}

// parseField accepts integers and (for tolerance with real archive files)
// floating point values, which are truncated toward zero.
func parseField(s string) (int64, error) {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("not a number")
	}
	return int64(f), nil
}

// StatusCancelled is the SWF status of a job cancelled before (or while)
// running — the only status that does not represent work the machine
// actually performed.
const StatusCancelled = 5

// ConvertOptions tunes the Record-to-Job conversion.
type ConvertOptions struct {
	// KeepCancelled retains records with Status 5 (cancelled). The default
	// drops them: a cancelled submission never held its nodes for its
	// recorded runtime, so simulating it as real work inflates the offered
	// load. Set this to reproduce results from before status filtering.
	KeepCancelled bool
}

// Convert turns one SWF record into a simulator job, applying the
// conventions of the paper's study:
//
//   - cancelled records (status 5) are dropped unless opts.KeepCancelled;
//   - requested processors falls back to used processors (and vice versa);
//   - runtime below 1s is clamped to 1s (the trace records 0s jobs);
//   - requested time (wall-clock limit) falls back to runtime and is clamped
//     to at least 1s;
//   - negative submit times are clamped to 0;
//   - records with no usable node count are dropped.
//
// ok is false for a dropped record.
func Convert(r Record, opts ConvertOptions) (j *job.Job, ok bool) {
	if r.Status == StatusCancelled && !opts.KeepCancelled {
		return nil, false
	}
	nodes := r.RequestedProcs
	if nodes <= 0 {
		nodes = r.UsedProcs
	}
	if nodes <= 0 {
		return nil, false
	}
	runtime := r.RunTime
	if runtime < 1 {
		runtime = 1
	}
	est := r.RequestedTime
	if est < 1 {
		est = runtime
	}
	submit := r.SubmitTime
	if submit < 0 {
		submit = 0
	}
	return &job.Job{
		ID:       job.ID(r.JobNumber),
		User:     int(r.UserID),
		Group:    int(r.GroupID),
		Submit:   submit,
		Runtime:  runtime,
		Estimate: est,
		Nodes:    int(nodes),
	}, true
}

// SortJobs sorts jobs into trace order: submit time, then job number.
func SortJobs(jobs []*job.Job) {
	sort.SliceStable(jobs, func(i, k int) bool {
		if jobs[i].Submit != jobs[k].Submit {
			return jobs[i].Submit < jobs[k].Submit
		}
		return jobs[i].ID < jobs[k].ID
	})
}
