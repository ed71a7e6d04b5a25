package tracecache

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"fairsched/internal/job"
	"fairsched/internal/swf"
)

// BuildFromSWF streams an SWF file through swf.ReadJobs — the exact
// pipeline scenario.TraceFileWith runs — and returns the converted jobs
// (trace order) plus the Meta identifying this build: the SHA-256 of the
// raw bytes (hashed while scanning, one pass) and the options fingerprint.
func BuildFromSWF(path string, opts swf.ConvertOptions) ([]*job.Job, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("tracecache: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	jobs, hdr, err := swf.ReadJobs(io.TeeReader(f, h), opts)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("tracecache: %s: %w", path, err)
	}
	meta := Meta{
		Fingerprint:   OptionsFingerprint(opts),
		SystemSize:    hdr.SystemSize(),
		UnixStartTime: hdr.UnixStartTime,
	}
	h.Sum(meta.SourceSHA256[:0])
	return jobs, meta, nil
}

// WriteFile encodes jobs+meta and writes the image atomically (temp file in
// the same directory, then rename), so a concurrent or crashed writer never
// leaves a torn cache — readers see either the old file or the new one.
func WriteFile(path string, jobs []*job.Job, meta Meta) error {
	buf, err := Encode(jobs, meta)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("tracecache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("tracecache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("tracecache: %w", err)
	}
	return nil
}

// ReadFile loads and decodes a cache file.
func ReadFile(path string) ([]*job.Job, Meta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("tracecache: %w", err)
	}
	jobs, meta, err := Decode(data)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("%s: %w", path, err)
	}
	return jobs, meta, nil
}

// Stats counts cache outcomes across a process, so campaign drivers can
// report (and CI can assert) that the second run reused every cache file.
// Counters are atomic: Ensure is called from parallel campaign workers.
type Stats struct {
	Built  atomic.Int64 // caches (re)built from SWF
	Reused atomic.Int64 // caches loaded warm
}

func (s *Stats) String() string {
	return fmt.Sprintf("tracecache: %d built, %d reused", s.Built.Load(), s.Reused.Load())
}

// DefaultStats tallies every Ensure call in the process.
var DefaultStats Stats

// CachePath maps a trace file to its cache file inside cacheDir. The name
// keys on the trace's base name plus a short hash of its absolute path, so
// distinct traces sharing a base name get distinct cache files.
func CachePath(cacheDir, tracePath string) string {
	abs, err := filepath.Abs(tracePath)
	if err != nil {
		abs = tracePath
	}
	sum := sha256.Sum256([]byte(abs))
	return filepath.Join(cacheDir, fmt.Sprintf("%s-%x.fstc", filepath.Base(tracePath), sum[:6]))
}

// Ensure returns the converted jobs for an SWF trace, loading the binary
// cache when a valid one exists and (re)building it otherwise. A cache is
// valid when its header decodes, its version matches, its options
// fingerprint matches opts, and its source checksum matches expectedSum
// (pass a zero sum to skip the pin — the cache is then trusted on
// fingerprint alone, the right default when no manifest checksum is
// declared). Stale or corrupt caches are rebuilt in place, never trusted.
// hit reports whether the load was served warm from cache.
//
// cacheDir == "" disables caching entirely: the trace is streamed and
// nothing is written, which is the reference path cache-equivalence tests
// diff against.
func Ensure(cacheDir, tracePath string, opts swf.ConvertOptions, expectedSum [32]byte) (jobs []*job.Job, meta Meta, hit bool, err error) {
	if cacheDir == "" {
		jobs, meta, err = BuildFromSWF(tracePath, opts)
		return jobs, meta, false, err
	}
	cp := CachePath(cacheDir, tracePath)
	if data, rerr := os.ReadFile(cp); rerr == nil {
		if jobs, meta, derr := Decode(data); derr == nil &&
			meta.Fingerprint == OptionsFingerprint(opts) &&
			(expectedSum == [32]byte{} || meta.SourceSHA256 == expectedSum) {
			DefaultStats.Reused.Add(1)
			return jobs, meta, true, nil
		}
		// Invalid for this request (corrupt, old version, different options,
		// or different source bytes): fall through and rebuild over it.
	}
	jobs, meta, err = BuildFromSWF(tracePath, opts)
	if err != nil {
		return nil, Meta{}, false, err
	}
	if expectedSum != [32]byte{} && meta.SourceSHA256 != expectedSum {
		return nil, Meta{}, false, fmt.Errorf("tracecache: %s: checksum mismatch: file is sha256:%x, manifest pins sha256:%x",
			tracePath, meta.SourceSHA256, expectedSum)
	}
	if err := WriteFile(cp, jobs, meta); err != nil {
		return nil, Meta{}, false, err
	}
	DefaultStats.Built.Add(1)
	return jobs, meta, false, nil
}
