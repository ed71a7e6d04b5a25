package topology

import "sort"

// Placement maps users to queue-tree nodes and partitions. Scenario
// transforms build one per cell (mirroring slo.Assignment): a queue tag
// routes a user's jobs to that leaf queue (and hence its partition); a
// bare partition tag routes to the partition's first queue. Users without
// a tag route to the default partition's first queue.
//
// A Placement is immutable after Build; the same value is shared by every
// policy run of a cell.
type Placement struct {
	queue map[int]string
	part  map[int]string
}

// Queue returns the queue path the user is tagged with.
func (p *Placement) Queue(user int) (string, bool) {
	if p == nil {
		return "", false
	}
	q, ok := p.queue[user]
	return q, ok
}

// PartitionTag returns the partition the user is tagged with directly
// (queue tags imply a partition through the topology instead).
func (p *Placement) PartitionTag(user int) (string, bool) {
	if p == nil {
		return "", false
	}
	n, ok := p.part[user]
	return n, ok
}

// QueuePaths returns the distinct queue paths used by queue tags, sorted.
// The flat (no-topology) path groups per-queue report rows by these.
func (p *Placement) QueuePaths() []string {
	if p == nil {
		return nil
	}
	seen := map[string]bool{}
	for _, q := range p.queue {
		seen[q] = true
	}
	out := make([]string, 0, len(seen))
	for q := range seen {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// PlacementBuilder accumulates user tags; transforms in a scenario chain
// contribute in order, later writes winning (like slo.Builder).
type PlacementBuilder struct {
	queue map[int]string
	part  map[int]string
}

// SetQueue tags a user's jobs with a queue path.
func (b *PlacementBuilder) SetQueue(user int, path string) {
	if b.queue == nil {
		b.queue = make(map[int]string)
	}
	b.queue[user] = path
}

// SetPartition tags a user's jobs with a partition name.
func (b *PlacementBuilder) SetPartition(user int, name string) {
	if b.part == nil {
		b.part = make(map[int]string)
	}
	b.part[user] = name
}

// Build returns the immutable placement, nil when nothing was tagged.
func (b *PlacementBuilder) Build() *Placement {
	if len(b.queue) == 0 && len(b.part) == 0 {
		return nil
	}
	return &Placement{queue: b.queue, part: b.part}
}
