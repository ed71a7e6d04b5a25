package swf

import (
	"bufio"
	"io"
	"strings"

	"fairsched/internal/job"
)

// Scanner streams an SWF trace one record at a time, the archive-scale
// counterpart of Parse: a multi-gigabyte trace is read in constant memory
// (one bufio buffer plus one Record), so a campaign over many real traces
// never needs a whole Trace in RAM.
//
// Usage mirrors bufio.Scanner:
//
//	sc := swf.NewScanner(f)
//	for sc.Scan() {
//		rec := sc.Record()
//		...
//	}
//	if err := sc.Err(); err != nil { ... }
//
// Header directives are accumulated as they are encountered (SWF puts them
// before the first record, but comments are legal anywhere); Header is
// complete for any directive above the last record returned, and fully
// complete once Scan has returned false.
type Scanner struct {
	sc     *bufio.Scanner
	header Header
	rec    Record
	line   int
	err    error
	done   bool
}

// NewScanner wraps r for streaming SWF reads.
func NewScanner(r io.Reader) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &Scanner{sc: sc}
}

// Scan advances to the next record, skipping blank lines and absorbing
// header/comment lines into Header. It returns false at end of input or on
// the first error (see Err).
func (s *Scanner) Scan() bool {
	if s.done {
		return false
	}
	for s.sc.Scan() {
		s.line++
		line := strings.TrimSpace(s.sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			s.header.addComment(line)
			continue
		}
		rec, err := parseRecord(line)
		if err != nil {
			s.err = &ParseError{Line: s.line, Err: err}
			s.done = true
			return false
		}
		s.rec = rec
		return true
	}
	s.done = true
	if err := s.sc.Err(); err != nil {
		// The read failed on the line after the last one delivered (e.g.
		// bufio.ErrTooLong on an oversized line); s.line still names the
		// previous, valid line.
		s.err = &ParseError{Line: s.line + 1, Err: err}
	}
	return false
}

// Record returns the record produced by the last successful Scan.
func (s *Scanner) Record() Record { return s.rec }

// Header returns the directives parsed so far. The pointer stays valid (and
// keeps filling in) across Scan calls.
func (s *Scanner) Header() *Header { return &s.header }

// Line returns the 1-based line number of the last line consumed.
func (s *Scanner) Line() int { return s.line }

// Err returns the first error encountered, nil at a clean end of input.
func (s *Scanner) Err() error { return s.err }

// ReadJobs streams r through a Scanner and Convert and returns the converted
// jobs in trace order (SortJobs) with the trace's header. Only the jobs are
// held in memory, never the raw records.
func ReadJobs(r io.Reader, opts ConvertOptions) ([]*job.Job, *Header, error) {
	sc := NewScanner(r)
	var jobs []*job.Job
	for sc.Scan() {
		if j, ok := Convert(sc.Record(), opts); ok {
			jobs = append(jobs, j)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	SortJobs(jobs)
	return jobs, sc.Header(), nil
}
