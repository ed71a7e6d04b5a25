package sim

import (
	"fmt"
	"sync"

	"fairsched/internal/job"
)

// PartitionRun describes one partition's independent event loop: its own
// capacity, policy instance, observers and workload slice. Partitions
// share nothing at runtime — no jobs migrate and no state is read across
// loops — which makes them the intra-run sharding seam: one big run
// executes as len(runs) loops, in parallel if asked, with results merged
// afterwards.
type PartitionRun struct {
	// Name labels the partition in errors and reports; the errors of an
	// unnamed run (a flat machine) pass through unwrapped.
	Name string
	// Config parameterizes the partition's simulator (SystemSize is the
	// partition's node count; FirstSegmentID its split-segment id range).
	Config Config
	// Policy is the partition's scheduler (policies hold per-run state, so
	// each partition needs its own instance).
	Policy Policy
	// Observers receive the partition's lifecycle callbacks.
	Observers []Observer
	// Workload is the partition's job stream (jobs routed to it).
	Workload []*job.Job
}

// RunPartitions executes every partition run, at most `parallel`
// concurrently (values < 1 mean 1), and returns the per-partition results
// in input order. Each partition is a fully deterministic independent
// simulation, so the combined outcome is identical at every parallelism
// width — the campaign engine's byte-equivalence bar, applied inside a
// single run. The first error (by input order) is returned, wrapped with
// its partition's name when it has one.
func RunPartitions(parallel int, runs []PartitionRun) ([]*Result, error) {
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(runs) {
		parallel = len(runs)
	}
	results := make([]*Result, len(runs))
	errs := make([]error, len(runs))
	if parallel <= 1 {
		for i := range runs {
			results[i], errs[i] = runPartition(&runs[i])
		}
	} else {
		idx := make(chan int, len(runs))
		for i := range runs {
			idx <- i
		}
		close(idx)
		var wg sync.WaitGroup
		for w := 0; w < parallel; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i], errs[i] = runPartition(&runs[i])
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil && runs[i].Name != "" {
			return nil, fmt.Errorf("partition %s: %w", runs[i].Name, err)
		}
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func runPartition(r *PartitionRun) (*Result, error) {
	return New(r.Config, r.Policy, r.Observers...).Run(r.Workload)
}
