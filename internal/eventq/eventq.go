// Package eventq provides the deterministic future event list used by the
// discrete-event simulator, ordered by (time, priority, sequence). The
// sequence number makes same-timestamp events FIFO, which keeps simulation
// runs exactly reproducible.
//
// A queue is two parts merged on pop: a stream of events known up front
// and already in order (the simulator's trace arrivals, handed over once by
// Preload and read one at a time), and a binary min-heap of the events
// pushed while the run goes on (completions, wall-clock checks, wakes,
// requeues). The heap then holds what is pending, not the whole trace, so a
// pop's sift depth follows the running set rather than the trace length.
//
// The queue is generic over its payload type and implements the heap
// directly on a slice instead of going through container/heap: with the
// interface-based heap every Push boxes the event into an interface{} (one
// allocation per event) and every Pop pays a dynamic dispatch per
// sift-down comparison.
package eventq

import "fmt"

// Event is the element type stored in the queue. Payload is opaque to the
// queue. Events at the same time are ordered by ascending Prio, then FIFO:
// the simulator uses Prio to process completions (which free nodes) before
// arrivals and wake-ups at the same instant.
type Event[P any] struct {
	Time    int64
	Prio    int
	Seq     int64 // assigned by Push or Preload, FIFO tie-break
	Kind    int
	Payload P
}

// Queue is a presorted stream merged with a min-heap of events. The zero
// value is ready to use.
type Queue[P any] struct {
	h   []Event[P] // heap of pushed events
	seq int64
	// The preloaded stream: events next..n-1 are read through at on demand,
	// event next is cached in head, and event i carries sequence number
	// base+i+1.
	at      func(i int) Event[P]
	next, n int
	base    int64
	head    Event[P]
}

// Len reports the number of pending events.
func (q *Queue[P]) Len() int { return len(q.h) + q.n - q.next }

// Preload hands the queue a stream of n events known up front, event i
// being at(i), sorted by (Time, Prio). The queue reads each event once,
// when the one before it pops, so the stream costs no memory of its own.
// Sequence numbers are assigned in stream order, exactly as pushing the
// events one by one would, so the pop order is the same as if every event
// had gone through Push. A queue takes one stream: Preload replaces any
// stream still pending. An event out of order panics when it is read.
func (q *Queue[P]) Preload(n int, at func(i int) Event[P]) {
	q.at, q.next, q.n, q.base = at, 0, n, q.seq
	q.seq += int64(n)
	if n > 0 {
		q.head = q.read(0)
	}
}

// read returns stream event i with its sequence number.
func (q *Queue[P]) read(i int) Event[P] {
	e := q.at(i)
	e.Seq = q.base + int64(i) + 1
	return e
}

// Push enqueues an event at the given time and returns the assigned
// sequence number.
func (q *Queue[P]) Push(e Event[P]) int64 {
	q.seq++
	e.Seq = q.seq
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
	return e.Seq
}

// Pop removes and returns the earliest event. ok is false when empty.
func (q *Queue[P]) Pop() (Event[P], bool) {
	var zero Event[P]
	if q.streamFirst() {
		top := q.head
		if q.next++; q.next < q.n {
			q.head = q.read(q.next)
			if q.head.Time < top.Time || q.head.Time == top.Time && q.head.Prio < top.Prio {
				panic(fmt.Sprintf("eventq: preloaded event %d out of order", q.next))
			}
		} else {
			q.at, q.head = nil, zero // release the stream's source
		}
		return top, true
	}
	n := len(q.h)
	if n == 0 {
		return zero, false
	}
	top := q.h[0]
	n--
	q.h[0] = q.h[n]
	q.h[n] = zero // drop payload references for the GC
	q.h = q.h[:n]
	if n > 1 {
		q.down(0)
	}
	return top, true
}

// Peek returns the earliest event without removing it.
func (q *Queue[P]) Peek() (Event[P], bool) {
	if q.streamFirst() {
		return q.head, true
	}
	if len(q.h) == 0 {
		var zero Event[P]
		return zero, false
	}
	return q.h[0], true
}

// streamFirst reports whether the stream head is the earliest event.
func (q *Queue[P]) streamFirst() bool {
	return q.next < q.n && (len(q.h) == 0 || less(&q.head, &q.h[0]))
}

// less orders events by (time, priority, sequence).
func less[P any](a, b *Event[P]) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.Seq < b.Seq
}

func (q *Queue[P]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(&q.h[i], &q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *Queue[P]) down(i int) {
	n := len(q.h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && less(&q.h[right], &q.h[left]) {
			least = right
		}
		if !less(&q.h[least], &q.h[i]) {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}
