// Package topology models the machine and queue shape of a run: named
// partitions (machine groups, each with its own node capacity and event
// loop) and a hierarchical queue tree (org → group → user) whose nodes
// carry guaranteed shares, maximum-capacity quotas and per-queue policy
// specs composed from the sched grammar.
//
// A topology is pure data with a text grammar (see Parse) following the
// same positional-error/canonical-form discipline as sched.ParseSpec: the
// canonical rendering is a parse fixed point, so a topology string is a
// stable cross-tool identifier. The zero Topology is one flat machine: a
// single default partition with no declared queues, where the run's policy
// schedules alone — exactly the paper's simulator.
package topology

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"fairsched/internal/sched"
)

// Partition is one named machine group. Each partition runs its own event
// loop over its own nodes; jobs never migrate between partitions.
type Partition struct {
	// Name identifies the partition (segment charset: [A-Za-z0-9_-]).
	Name string
	// Nodes is the partition's node capacity; 0 inherits the run's system
	// size (useful for single-partition topologies).
	Nodes int
}

// QueueNode is one node of the queue tree. A node whose path is a proper
// prefix of another declared node's path is an inner node: it carries
// share/quota attributes that roll up from its descendants but no policy
// and no directly-routed jobs. Every other node is a leaf with its own
// scheduler instance.
type QueueNode struct {
	// Path is the tree position, '/'-separated (e.g. "org/a"). Segments use
	// the same charset as partition names; '.' is reserved so per-queue
	// metric keys (queue.<path>.<field>) stay unambiguous.
	Path string
	// Partition names the machine group this queue (and its subtree)
	// schedules on; "" means the default (first declared) partition. Parse
	// normalizes "" to the default partition's name when one is declared.
	Partition string
	// Guarantee is the node's relative fair-share weight among its siblings
	// (default 1): sibling subtrees are serviced in increasing
	// usage/guarantee order, usage rolled up the tree with the same lazy
	// decay as per-user fairshare.
	Guarantee float64
	// Cap limits the subtree to this fraction of the partition's nodes,
	// in (0, 1]; 1 (the default) means no quota. Quotas clamp the free
	// capacity a leaf's scheduler may start into, for itself and every
	// queue below the capped node.
	Cap float64
	// Policy is the leaf's scheduling policy; nil inherits the run's
	// policy. Inner nodes must leave it nil; a leaf's own policy is checked
	// in the composition table's Leaf context.
	Policy *sched.Spec
}

// Topology is the full machine/queue shape. The zero value is the flat
// pre-partition machine. Parse returns partitions in declaration order
// (the first is the default) and queues sorted by path.
type Topology struct {
	Partitions []Partition
	Queues     []QueueNode
}

// DefaultPartitionName is the name of the implicit partition when none is
// declared.
const DefaultPartitionName = "default"

// DefaultPartition returns the name of the partition queues land on when
// they do not name one: the first declared partition, or
// DefaultPartitionName for a partition-less topology.
func (t *Topology) DefaultPartition() string {
	if len(t.Partitions) > 0 {
		return t.Partitions[0].Name
	}
	return DefaultPartitionName
}

// EffectivePartitions resolves the declared partitions against the run's
// system size: a topology with no part= clauses is one default partition
// of the full machine, and a declared partition with Nodes == 0 inherits
// the full system size.
func (t *Topology) EffectivePartitions(systemSize int) []Partition {
	if len(t.Partitions) == 0 {
		return []Partition{{Name: DefaultPartitionName, Nodes: systemSize}}
	}
	out := make([]Partition, len(t.Partitions))
	for i, p := range t.Partitions {
		if p.Nodes == 0 {
			p.Nodes = systemSize
		}
		out[i] = p
	}
	return out
}

// PartitionOf returns the queue's effective partition name.
func (t *Topology) PartitionOf(q QueueNode) string {
	if q.Partition != "" {
		return q.Partition
	}
	return t.DefaultPartition()
}

// IsAncestor reports whether path a is a proper ancestor of path b in the
// queue tree ("org" is an ancestor of "org/a" and "org/a/x").
func IsAncestor(a, b string) bool {
	return len(b) > len(a) && strings.HasPrefix(b, a) && b[len(a)] == '/'
}

// Leaves returns the declared queues that are not proper ancestors of
// other declared queues, in path order: the nodes jobs route to, each
// backed by its own scheduler instance.
func (t *Topology) Leaves() []QueueNode {
	var out []QueueNode
	for i, q := range t.Queues {
		inner := false
		for k, r := range t.Queues {
			if i != k && IsAncestor(q.Path, r.Path) {
				inner = true
				break
			}
		}
		if !inner {
			out = append(out, q)
		}
	}
	return out
}

// LeavesFor returns the leaf queues of one partition, in path order.
func (t *Topology) LeavesFor(partition string) []QueueNode {
	var out []QueueNode
	for _, q := range t.Leaves() {
		if t.PartitionOf(q) == partition {
			out = append(out, q)
		}
	}
	return out
}

// ValidName reports whether s is a legal partition name.
func ValidName(s string) bool { return validSegment(s) }

// ValidPath reports whether p is a legal queue path.
func ValidPath(p string) bool { return validPath(p) }

// validSegment reports whether s is a legal name segment: non-empty, only
// letters, digits, '_' and '-'.
func validSegment(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// validPath reports whether p is a legal queue path: '/'-joined segments.
func validPath(p string) bool {
	for _, seg := range strings.Split(p, "/") {
		if !validSegment(seg) {
			return false
		}
	}
	return true
}

// Validate checks the topology's internal consistency: name/path charsets
// and uniqueness, partition references, share/quota ranges and the
// inner-node contract (no policy on a queue with declared descendants,
// one partition per subtree). Whether leaf policies compose is Admit's
// (and Parse's) question.
func (t *Topology) Validate() error {
	seenPart := map[string]bool{}
	for _, p := range t.Partitions {
		if !validSegment(p.Name) {
			return fmt.Errorf("topology: bad partition name %q (want letters, digits, '_' or '-')", p.Name)
		}
		if seenPart[p.Name] {
			return fmt.Errorf("topology: duplicate partition %q", p.Name)
		}
		seenPart[p.Name] = true
		if p.Nodes < 0 {
			return fmt.Errorf("topology: partition %q: negative node count %d", p.Name, p.Nodes)
		}
	}
	seenQ := map[string]bool{}
	for _, q := range t.Queues {
		if !validPath(q.Path) {
			return fmt.Errorf("topology: bad queue path %q (want '/'-joined segments of letters, digits, '_' or '-')", q.Path)
		}
		if seenQ[q.Path] {
			return fmt.Errorf("topology: duplicate queue %q", q.Path)
		}
		seenQ[q.Path] = true
		if q.Partition != "" && !seenPart[q.Partition] {
			return fmt.Errorf("topology: queue %q: unknown partition %q", q.Path, q.Partition)
		}
		if g := q.Guarantee; g != 0 && (!(g > 0) || math.IsInf(g, 1)) { // rejects negatives, NaN and +Inf
			return fmt.Errorf("topology: queue %q: guarantee %v must be positive and finite", q.Path, g)
		}
		if c := q.Cap; c != 0 && !(c > 0 && c <= 1) {
			return fmt.Errorf("topology: queue %q: cap %v out of range (0, 1]", q.Path, c)
		}
	}
	for _, q := range t.Queues {
		for _, r := range t.Queues {
			if !IsAncestor(q.Path, r.Path) {
				continue
			}
			if q.Policy != nil {
				return fmt.Errorf("topology: queue %q has descendant %q and a policy: inner nodes carry shares, not schedulers", q.Path, r.Path)
			}
			if t.PartitionOf(q) != t.PartitionOf(r) {
				return fmt.Errorf("topology: queue %q (partition %s) and descendant %q (partition %s): a subtree cannot span partitions",
					q.Path, t.PartitionOf(q), r.Path, t.PartitionOf(r))
			}
		}
	}
	return nil
}

// Admit checks the topology (Validate) and a run's cell policy on it, in
// sched's composition table: the spec in the Cell context, then every leaf
// as it will run (see checkLeaves). A nil topology is a flat run, where
// Admit is cell.Validate(). Campaigns call it for every policy before any
// cell loads, so a bad pair fails once, before any workload is read.
func (t *Topology) Admit(cell sched.Spec) error {
	if t == nil {
		return cell.Validate()
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if err := cell.Check(sched.Cell); err != nil {
		return err
	}
	if path, err := t.checkLeaves(&cell); err != nil {
		return fmt.Errorf("topology: queue %s: %w", path, err)
	}
	return nil
}

// checkLeaves checks every leaf's policy against the composition table:
// its own in the Leaf context or, when cell is non-nil, the inherited one
// in the Cell context, joined by Capped under a quota on the leaf's chain
// and by Shared when other leaves share its partition. It returns the
// first rejected leaf's path with the rejection.
func (t *Topology) checkLeaves(cell *sched.Spec) (string, error) {
	for _, q := range t.Leaves() {
		spec, ctx := q.Policy, sched.Leaf
		if spec == nil {
			if cell == nil {
				continue
			}
			spec, ctx = cell, sched.Cell
		}
		if t.Quota(q) != nil {
			ctx |= sched.Capped
		}
		if len(t.LeavesFor(t.PartitionOf(q))) > 1 {
			ctx |= sched.Shared
		}
		if err := spec.Check(ctx); err != nil {
			return q.Path, err
		}
	}
	return "", nil
}

// Quota returns the queue whose cap= quota binds leaf q: the node with the
// smallest cap on q's ancestor chain, q included (the first declared on a
// tie), or nil when no node on the chain is capped.
func (t *Topology) Quota(q QueueNode) *QueueNode {
	var tightest *QueueNode
	for i, a := range t.Queues {
		if a.Cap != 0 && a.Cap != 1 && (a.Path == q.Path || IsAncestor(a.Path, q.Path)) && (tightest == nil || a.Cap < tightest.Cap) {
			tightest = &t.Queues[i]
		}
	}
	return tightest
}

// normalize fills defaults (guarantee/cap 1, explicit default partition
// when one is declared) and sorts queues by path, so Parse(Canonical(t))
// round-trips to an identical value.
func (t *Topology) normalize() {
	def := ""
	if len(t.Partitions) > 0 {
		def = t.Partitions[0].Name
	}
	for i := range t.Queues {
		q := &t.Queues[i]
		if q.Guarantee == 0 {
			q.Guarantee = 1
		}
		if q.Cap == 0 {
			q.Cap = 1
		}
		if q.Partition == "" {
			q.Partition = def
		}
	}
	sort.Slice(t.Queues, func(i, k int) bool { return t.Queues[i].Path < t.Queues[k].Path })
}

// Canonical renders the topology in its canonical grammar form:
// partitions in declaration order, then queues sorted by path, each with
// its non-default attributes in fixed order (part, guar, cap, policy).
// Parsing the canonical form yields an identical topology (the round-trip
// property FuzzParseQueueSpec checks).
func (t *Topology) Canonical() string {
	var b strings.Builder
	def := t.DefaultPartition()
	if len(t.Partitions) == 0 {
		def = ""
	}
	for _, p := range t.Partitions {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString("part=")
		b.WriteString(p.Name)
		if p.Nodes > 0 {
			fmt.Fprintf(&b, ":%d", p.Nodes)
		}
	}
	qs := append([]QueueNode(nil), t.Queues...)
	sort.Slice(qs, func(i, k int) bool { return qs[i].Path < qs[k].Path })
	for _, q := range qs {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString("queue=")
		b.WriteString(q.Path)
		if q.Partition != "" && q.Partition != def {
			b.WriteString(":part=")
			b.WriteString(q.Partition)
		}
		if q.Guarantee != 0 && q.Guarantee != 1 {
			fmt.Fprintf(&b, ":guar=%s", fmtFloat(q.Guarantee))
		}
		if q.Cap != 0 && q.Cap != 1 {
			fmt.Fprintf(&b, ":cap=%s", fmtFloat(q.Cap))
		}
		if q.Policy != nil {
			b.WriteByte(':')
			b.WriteString(q.Policy.String())
		}
	}
	return b.String()
}

// String returns the canonical form.
func (t *Topology) String() string { return t.Canonical() }
