package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"fairsched/internal/job"
	"fairsched/internal/swf"
	"fairsched/internal/tracecache"
	"fairsched/internal/workload"
)

// Workload is a loaded, untransformed workload plus the trace metadata a
// campaign needs to configure the simulator around it.
type Workload struct {
	Jobs []*job.Job
	// SystemSize is the trace-declared node count: MaxNodes, else MaxProcs
	// (0 when the header declares neither).
	SystemSize int
	// UnixStartTime is the trace's wall-clock origin (0 when unknown); it
	// aligns fairshare decay boundaries to real days.
	UnixStartTime int64
	// FairshareEpoch is the trace-declared default fairshare epoch (0 when
	// the trace does not declare one); manifest entries set it, and a
	// campaign uses it when the study leaves the epoch unset.
	FairshareEpoch int64
}

// SystemSize is the one machine-size rule for a loaded workload: the first
// positive declared size (callers pass the study's, then the Workload's),
// else the simulator default of 1000 nodes widened to fit the widest job.
func SystemSize(jobs []*job.Job, declared ...int) int {
	for _, n := range declared {
		if n > 0 {
			return n
		}
	}
	return max(1000, job.MaxNodes(jobs))
}

// Source names one workload a campaign can load on demand. Load is called
// once per campaign cell, on the worker executing that cell, so a campaign
// holds at most one loaded workload per worker at a time — never the whole
// trace set.
type Source struct {
	Name string
	// Load materializes the workload. seed is the cell's seed: synthetic
	// sources generate with it, trace-backed sources ignore it.
	Load func(seed int64) (*Workload, error)
}

// TraceFile is a Source streaming an SWF file through swf.Scanner with the
// default conversion options: the file is read record by record (constant
// memory beyond the converted jobs themselves) on every Load.
func TraceFile(path string) Source {
	return TraceFileWith(path, swf.ConvertOptions{})
}

// TraceFileWith is TraceFile with explicit conversion options.
func TraceFileWith(path string, opts swf.ConvertOptions) Source {
	return Source{
		Name: filepath.Base(path),
		Load: func(int64) (*Workload, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
			defer f.Close()
			jobs, h, err := swf.ReadJobs(f, opts)
			if err != nil {
				return nil, fmt.Errorf("scenario: %s: %w", path, err)
			}
			return &Workload{Jobs: jobs, SystemSize: h.SystemSize(), UnixStartTime: h.UnixStartTime}, nil
		},
	}
}

// ManifestSource is a Source for one manifest entry, loading through the
// binary trace cache. Unlike TraceFile, which re-streams the SWF text on
// every Load, a ManifestSource materializes the trace once per process and
// shares the job slice across every (scenario × seed × policy) cell that
// touches it — safe because scenarios never mutate input jobs. cacheDir ""
// streams without writing a cache (the reference path cache-equivalence
// tests diff against); otherwise a valid cache is loaded warm and a missing
// or stale one is rebuilt.
func ManifestSource(m *tracecache.Manifest, e tracecache.ManifestEntry, cacheDir string) Source {
	var once sync.Once
	var wl *Workload
	var lerr error
	path := m.ResolvePath(e)
	opts := swf.ConvertOptions{KeepCancelled: e.KeepCancelled}
	return Source{
		Name: e.Name,
		Load: func(int64) (*Workload, error) {
			once.Do(func() {
				jobs, meta, _, err := tracecache.Ensure(cacheDir, path, opts, e.SHA256)
				if err != nil {
					lerr = fmt.Errorf("scenario: trace %s: %w", e.Name, err)
					return
				}
				size := meta.SystemSize
				if e.MaxNodes > 0 {
					size = e.MaxNodes
				}
				start := meta.UnixStartTime
				if e.UnixStartTime > 0 {
					start = e.UnixStartTime
				}
				wl = &Workload{
					Jobs:           jobs,
					SystemSize:     size,
					UnixStartTime:  start,
					FairshareEpoch: e.Epoch,
				}
			})
			return wl, lerr
		},
	}
}

// ManifestSources returns one memoized ManifestSource per entry, in entry
// order — the campaign trace axis for a manifest-driven sweep.
func ManifestSources(m *tracecache.Manifest, entries []tracecache.ManifestEntry, cacheDir string) []Source {
	srcs := make([]Source, len(entries))
	for i, e := range entries {
		srcs[i] = ManifestSource(m, e, cacheDir)
	}
	return srcs
}

// Synthetic is a Source generating the calibrated CPlant/Ross workload; the
// campaign seed overrides cfg.Seed, so the seed axis varies the trace
// itself, not just the scenario draws.
func Synthetic(cfg workload.Config) Source {
	return Source{
		Name: "synthetic",
		Load: func(seed int64) (*Workload, error) {
			c := cfg
			c.Seed = seed
			jobs, err := workload.Generate(c)
			if err != nil {
				return nil, err
			}
			return &Workload{Jobs: jobs, SystemSize: c.SystemSize}, nil
		},
	}
}

// Jobs is a Source over an in-memory workload (tests, library callers). The
// slice is shared, not copied; scenarios never mutate it.
func Jobs(name string, jobs []*job.Job, systemSize int) Source {
	return Source{
		Name: name,
		Load: func(int64) (*Workload, error) {
			return &Workload{Jobs: jobs, SystemSize: systemSize}, nil
		},
	}
}
