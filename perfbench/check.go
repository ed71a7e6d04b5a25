package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"fairsched/internal/job"
	"fairsched/internal/sim"
	"fairsched/internal/sweep"
)

// checkRun verifies one policy run's records against its input jobs; it
// holds for any seed:
//   - every input job has exactly one finished record that ends it: the job
//     itself, or the last segment of its checkpoint chain (max-runtime splits
//     and preemption remainders carry the job's id as Parent);
//   - submit <= start <= complete for every record, and every record ran;
//   - the nodes in use at any instant, rebuilt from the records, never
//     exceed the system size.
func checkRun(jobs []*job.Job, res *sim.Result, systemSize int) error {
	final := make(map[job.ID]int, len(jobs))
	for _, j := range jobs {
		final[j.ID] = 0
	}
	type edge struct {
		t     int64
		nodes int
	}
	edges := make([]edge, 0, 2*len(res.Records))
	for _, r := range res.Records {
		if !r.Started || !r.Finished {
			return fmt.Errorf("job %d: record not started and finished", r.Job.ID)
		}
		if r.Submit > r.Start || r.Start > r.Complete {
			return fmt.Errorf("job %d: submit %d, start %d, complete %d out of order", r.Job.ID, r.Submit, r.Start, r.Complete)
		}
		edges = append(edges, edge{r.Start, r.Job.Nodes}, edge{r.Complete, -r.Job.Nodes})
		if r.Preempted || (r.Job.Parent != 0 && r.Job.Segment != r.Job.Segments) {
			continue
		}
		root := r.Job.ID
		if r.Job.Parent != 0 {
			root = r.Job.Parent
		}
		n, ok := final[root]
		if !ok {
			return fmt.Errorf("job %d: finished record for a job not in the input", root)
		}
		final[root] = n + 1
	}
	for id, n := range final {
		if n != 1 {
			return fmt.Errorf("job %d: %d finished records, want 1", id, n)
		}
	}
	// Releases sort before starts at the same instant: a job may start on the
	// nodes another frees at that second.
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return edges[a].nodes < edges[b].nodes
	})
	used := 0
	for _, e := range edges {
		if used += e.nodes; used > systemSize {
			return fmt.Errorf("%d nodes in use at t=%d on a %d-node system", used, e.t, systemSize)
		}
	}
	return nil
}

// digest hashes every per-policy summary of a pass, cells in matrix order,
// at full precision. Two passes over the same inputs must agree, traced or
// not, and on a workload's default seed the digest is pinned.
func digest(cells []*sweep.CellSummary) string {
	h := sha256.New()
	for _, c := range cells {
		if c == nil {
			fmt.Fprintln(h, "failed cell")
			continue
		}
		fmt.Fprintf(h, "%s|%s|%d|%d|%d\n", c.Source, c.Scenario, c.Seed, c.SystemSize, c.Jobs)
		for i, p := range c.Policies {
			fmt.Fprintf(h, "%s %+v\n", p, *c.Summaries[i])
			if c.SLOs != nil && c.SLOs[i] != nil {
				fmt.Fprintf(h, "slo %+v\n", *c.SLOs[i])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
