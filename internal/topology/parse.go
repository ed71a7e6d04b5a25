package topology

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"fairsched/internal/sched"
)

// Parse resolves a topology spec: comma-separated clauses declaring
// partitions and queues, mirroring sched.ParseSpec's discipline (byte
// positions in errors, canonical round-trip):
//
//	part=<name>[:<nodes>]      a machine group; the first declared is the
//	                           default. Omitted nodes inherit the run's
//	                           system size.
//	queue=<path>[:<attr>...]   a queue-tree node; ':'-separated attributes
//	                           in any order:
//	    part=<name>            partition the subtree schedules on
//	    guar=<weight>          fair-share weight among siblings (default 1)
//	    cap=<fraction>         max share of the partition, (0, 1]
//	    <policy>               the leaf's policy: a registered name, an
//	                           order=/bf=/... chain, or a bare order token
//	                           (sjf ≡ order=sjf)
//
// Example: "part=fast:512,part=slow:1500,queue=org/a:part=fast:order=fairshare+bf=easy,queue=org/b:sjf".
func Parse(spec string) (*Topology, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("topology: empty spec")
	}
	t := &Topology{}
	at := map[string]int{} // queue path -> byte position of its clause
	pos := 0
	for _, clause := range strings.Split(spec, ",") {
		n := len(t.Queues)
		if err := parseClause(clause, pos, t); err != nil {
			return nil, fmt.Errorf("topology: spec %q: %w", spec, err)
		}
		if len(t.Queues) > n {
			at[t.Queues[n].Path] = pos + strings.Index(clause, strings.TrimSpace(clause))
		}
		pos += len(clause) + 1 // the ',' separator
	}
	t.normalize()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// Leaf policies are checked once the tree is whole: a quota may sit on
	// an ancestor declared after the leaf.
	if path, err := t.checkLeaves(nil); err != nil {
		return nil, fmt.Errorf("topology: spec %q: position %d: queue %s: %w", spec, at[path], path, err)
	}
	return t, nil
}

// MustParse is Parse, panicking on error (tests and examples).
func MustParse(spec string) *Topology {
	t, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// parseClause parses one comma-separated clause at byte position pos of
// the full spec, accumulating into t.
func parseClause(clause string, pos int, t *Topology) error {
	trimmed := strings.TrimSpace(clause)
	pos += strings.Index(clause, trimmed) // account for leading spaces
	key, val, ok := strings.Cut(trimmed, "=")
	if !ok {
		return fmt.Errorf("position %d: clause %q is not key=value (want part= or queue=)", pos, trimmed)
	}
	valPos := pos + len(key) + 1
	switch key {
	case "part":
		name, nodes, hasNodes := strings.Cut(val, ":")
		if !validSegment(name) {
			return fmt.Errorf("position %d: bad partition name %q (want letters, digits, '_' or '-')", valPos, name)
		}
		p := Partition{Name: name}
		if hasNodes {
			n, err := strconv.Atoi(nodes)
			if err != nil || n < 1 {
				return fmt.Errorf("position %d: partition %s: node count %q: want an integer >= 1", valPos+len(name)+1, name, nodes)
			}
			p.Nodes = n
		}
		t.Partitions = append(t.Partitions, p)
	case "queue":
		return parseQueueClause(val, valPos, t)
	default:
		return fmt.Errorf("position %d: unknown clause %q (want part or queue)", pos, key)
	}
	return nil
}

// parseQueueClause parses the value of one queue= clause (path plus
// ':'-separated attributes) at byte position pos.
func parseQueueClause(val string, pos int, t *Topology) error {
	toks := strings.Split(val, ":")
	path := toks[0]
	if !validPath(path) {
		return fmt.Errorf("position %d: bad queue path %q (want '/'-joined segments of letters, digits, '_' or '-')", pos, path)
	}
	q := QueueNode{Path: path}
	attrPos := pos + len(path) + 1
	for _, tok := range toks[1:] {
		if err := parseQueueAttr(tok, attrPos, &q); err != nil {
			return err
		}
		attrPos += len(tok) + 1
	}
	t.Queues = append(t.Queues, q)
	return nil
}

// parseQueueAttr parses one queue attribute token at byte position pos.
// Tokens that are not part=/guar=/cap= are the leaf's policy spec.
func parseQueueAttr(tok string, pos int, q *QueueNode) error {
	key, val, _ := strings.Cut(tok, "=")
	switch key {
	case "part":
		if q.Partition != "" {
			return fmt.Errorf("position %d: queue %s: duplicate part=", pos, q.Path)
		}
		if !validSegment(val) {
			return fmt.Errorf("position %d: queue %s: bad partition name %q", pos+len(key)+1, q.Path, val)
		}
		q.Partition = val
		return nil
	case "guar":
		if q.Guarantee != 0 {
			return fmt.Errorf("position %d: queue %s: duplicate guar=", pos, q.Path)
		}
		g, err := strconv.ParseFloat(val, 64)
		if err != nil || !(g > 0) || math.IsInf(g, 1) {
			return fmt.Errorf("position %d: queue %s: guarantee %q: want a positive number", pos+len(key)+1, q.Path, val)
		}
		q.Guarantee = g
		return nil
	case "cap":
		if q.Cap != 0 {
			return fmt.Errorf("position %d: queue %s: duplicate cap=", pos, q.Path)
		}
		c, err := strconv.ParseFloat(val, 64)
		if err != nil || !(c > 0 && c <= 1) {
			return fmt.Errorf("position %d: queue %s: cap %q: want a fraction in (0, 1]", pos+len(key)+1, q.Path, val)
		}
		q.Cap = c
		return nil
	}
	if q.Policy != nil {
		return fmt.Errorf("position %d: queue %s: second policy %q (queues take one policy)", pos, q.Path, tok)
	}
	s, err := parseQueuePolicy(tok)
	if err != nil {
		return fmt.Errorf("position %d: queue %s: %w", pos, q.Path, err)
	}
	q.Policy = &s
	return nil
}

// parseQueuePolicy resolves a queue's policy token: a registered name or
// component chain (sched.ParseSpec), or a bare order token as shorthand
// for order=<token>.
func parseQueuePolicy(tok string) (sched.Spec, error) {
	s, err := sched.ParseSpec(tok)
	if err == nil {
		return s, nil
	}
	if !strings.Contains(tok, "=") {
		if s2, err2 := sched.ParseSpec("order=" + tok); err2 == nil {
			return s2, nil
		}
	}
	return sched.Spec{}, err
}

// fmtFloat renders a share/quota value so that parsing it back yields the
// identical float (the canonical round-trip).
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
