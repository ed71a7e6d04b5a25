package eventq

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestPopOrderedByTime(t *testing.T) {
	var q Queue[struct{}]
	for _, ts := range []int64{50, 10, 30, 20, 40} {
		q.Push(Event[struct{}]{Time: ts})
	}
	var got []int64
	for {
		e, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, e.Time)
	}
	want := []int64{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestSameTimestampIsFIFO(t *testing.T) {
	var q Queue[struct{}]
	for i := 0; i < 10; i++ {
		q.Push(Event[struct{}]{Time: 100, Kind: i})
	}
	for i := 0; i < 10; i++ {
		e, ok := q.Pop()
		if !ok || e.Kind != i {
			t.Fatalf("event %d popped out of FIFO order (got kind %d)", i, e.Kind)
		}
	}
}

func TestSameTimestampPrioBeforeSeq(t *testing.T) {
	var q Queue[struct{}]
	q.Push(Event[struct{}]{Time: 100, Prio: 2, Kind: 0})
	q.Push(Event[struct{}]{Time: 100, Prio: 0, Kind: 1})
	q.Push(Event[struct{}]{Time: 100, Prio: 1, Kind: 2})
	q.Push(Event[struct{}]{Time: 100, Prio: 0, Kind: 3})
	want := []int{1, 3, 2, 0} // prio asc, FIFO within a prio
	for i, k := range want {
		e, ok := q.Pop()
		if !ok || e.Kind != k {
			t.Fatalf("pop %d: got kind %d, want %d", i, e.Kind, k)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue[struct{}]
	q.Push(Event[struct{}]{Time: 5, Kind: 1})
	e, ok := q.Peek()
	if !ok || e.Kind != 1 {
		t.Fatal("peek failed")
	}
	if q.Len() != 1 {
		t.Fatal("peek removed the event")
	}
	if _, ok := q.Pop(); !ok {
		t.Fatal("pop after peek failed")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty queue succeeded")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q Queue[struct{}]
	q.Push(Event[struct{}]{Time: 10})
	q.Push(Event[struct{}]{Time: 5})
	e, _ := q.Pop()
	if e.Time != 5 {
		t.Fatalf("got %d", e.Time)
	}
	q.Push(Event[struct{}]{Time: 1})
	e, _ = q.Pop()
	if e.Time != 1 {
		t.Fatalf("got %d", e.Time)
	}
	e, _ = q.Pop()
	if e.Time != 10 {
		t.Fatalf("got %d", e.Time)
	}
}

func TestPushAssignsMonotonicSeq(t *testing.T) {
	var q Queue[struct{}]
	s1 := q.Push(Event[struct{}]{Time: 1})
	s2 := q.Push(Event[struct{}]{Time: 1})
	if s2 <= s1 {
		t.Fatalf("sequence numbers not monotonic: %d then %d", s1, s2)
	}
}

// preload hands q the batch as its stream.
func preload[P any](q *Queue[P], batch []Event[P]) {
	q.Preload(len(batch), func(i int) Event[P] { return batch[i] })
}

func TestPreloadMergesWithPushes(t *testing.T) {
	var q Queue[int]
	preload(&q, []Event[int]{{Time: 10, Prio: 2, Payload: 1}, {Time: 20, Prio: 2, Payload: 2}, {Time: 20, Prio: 2, Payload: 3}})
	q.Push(Event[int]{Time: 20, Prio: 0, Payload: 4}) // earlier prio: before the stream's 20s
	q.Push(Event[int]{Time: 20, Prio: 2, Payload: 5}) // same (time, prio): after them, by seq
	q.Push(Event[int]{Time: 5, Prio: 4, Payload: 6})
	if q.Len() != 6 {
		t.Fatalf("Len %d, want 6", q.Len())
	}
	var got []int
	for {
		e, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, e.Payload)
	}
	if want := []int{6, 1, 4, 2, 3, 5}; !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}

func TestPreloadRejectsUnsortedBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted batch accepted")
		}
	}()
	var q Queue[int]
	preload(&q, []Event[int]{{Time: 1, Prio: 2}, {Time: 1, Prio: 1}})
	q.Pop()
}

// FuzzEventQueue pins the merged queue to a single heap: a preloaded sorted
// batch followed by random Push/Pop/Peek calls must pop exactly what a
// queue that pushed everything pops, with the same sequence numbers.
// Times and prios come from small ranges so ties are the common case.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{4, 3, 3, 9, 0, 1, 2, 0, 5, 2, 2, 3})
	f.Add([]byte{0, 0, 7, 1, 1, 2})
	f.Add([]byte{8, 1, 1, 1, 1, 9, 9, 9, 9, 0, 9, 2, 0, 1, 3, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		event := func(b byte, id int) Event[int] {
			return Event[int]{Time: int64(b % 8), Prio: int(b/8) % 3, Payload: id}
		}
		n := min(int(data[0]), len(data)-1)
		batch := make([]Event[int], n)
		for i := range batch {
			batch[i] = event(data[1+i], i)
		}
		slices.SortStableFunc(batch, func(a, b Event[int]) int {
			if c := cmp.Compare(a.Time, b.Time); c != 0 {
				return c
			}
			return cmp.Compare(a.Prio, b.Prio)
		})
		var got, ref Queue[int]
		for _, e := range batch {
			ref.Push(e)
		}
		preload(&got, batch)
		ops := data[1+n:]
		for i := 0; i < len(ops); i++ {
			switch ops[i] % 3 {
			case 0:
				if i+1 < len(ops) {
					i++
					e := event(ops[i], n+i)
					if gs, rs := got.Push(e), ref.Push(e); gs != rs {
						t.Fatalf("Push seq %d, reference %d", gs, rs)
					}
				}
			case 1:
				ge, gok := got.Pop()
				re, rok := ref.Pop()
				if gok != rok || ge != re {
					t.Fatalf("Pop %+v %v, reference %+v %v", ge, gok, re, rok)
				}
			case 2:
				ge, gok := got.Peek()
				re, rok := ref.Peek()
				if gok != rok || ge != re {
					t.Fatalf("Peek %+v %v, reference %+v %v", ge, gok, re, rok)
				}
			}
			if got.Len() != ref.Len() {
				t.Fatalf("Len %d, reference %d", got.Len(), ref.Len())
			}
		}
		for ref.Len() > 0 {
			ge, _ := got.Pop()
			re, _ := ref.Pop()
			if ge != re {
				t.Fatalf("drain: Pop %+v, reference %+v", ge, re)
			}
		}
		if _, ok := got.Pop(); ok {
			t.Fatal("merged queue outlived the reference")
		}
	})
}

func TestPayloadRoundTrips(t *testing.T) {
	type payload struct{ a, b int }
	var q Queue[payload]
	q.Push(Event[payload]{Time: 2, Payload: payload{3, 4}})
	q.Push(Event[payload]{Time: 1, Payload: payload{1, 2}})
	e, _ := q.Pop()
	if e.Payload != (payload{1, 2}) {
		t.Fatalf("payload %v", e.Payload)
	}
	e, _ = q.Pop()
	if e.Payload != (payload{3, 4}) {
		t.Fatalf("payload %v", e.Payload)
	}
}

func TestQuickPopIsSorted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[struct{}]
		count := int(n)%100 + 1
		for i := 0; i < count; i++ {
			q.Push(Event[struct{}]{Time: rng.Int63n(50)})
		}
		var times []int64
		prevTime, prevSeq := int64(-1), int64(-1)
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			if e.Time < prevTime {
				return false
			}
			if e.Time == prevTime && e.Seq <= prevSeq {
				return false
			}
			prevTime, prevSeq = e.Time, e.Seq
			times = append(times, e.Time)
		}
		return len(times) == count && sort.SliceIsSorted(times, func(i, k int) bool { return times[i] < times[k] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
