package sched

import (
	"math/rand"
	"testing"
)

// FuzzParseSpec asserts the parse/canonical round trip: any input the
// parser accepts must render a canonical chain that re-parses to the
// identical spec (and builds a runnable policy). Run continuously in CI as
// a smoke step; `go test -fuzz FuzzParseSpec ./internal/sched` digs deeper.
func FuzzParseSpec(f *testing.F) {
	for _, b := range Builtins() {
		f.Add(b.Key)
		f.Add(b.Spec.Canonical())
	}
	f.Add("order=fairshare+bf=easy+starve=24h.nonheavy+depth=2")
	f.Add("starve=90s+depth=7")
	f.Add("bf=depth+depth=100+max=1w")
	f.Add("depth999")
	f.Add(" order=sjf + bf=none ")
	f.Add("starve=24h.q75")
	f.Add("starve=24h.q07")
	f.Add("order=sjf+bf=easy+starve=72h.abs280h")
	f.Add("order=fcfs+bf=easy+max=3074457345618258603m")
	f.Add("starve=24h.abs1008000")
	f.Add("starve=24h.abs100001")
	f.Add("starve=24h.q100")
	f.Add("starve=24h.abs0")
	f.Add("order=fcfs+bf=easy+preempt=reserve")
	f.Add("order=edf+bf=easy+preempt=deadline.newest")
	f.Add("preempt=reserve.lowpri+bf=depth+depth=3")
	f.Add("preempt=deadline")
	f.Add("preempt=reserve.")
	f.Add("preempt=.newest")
	f.Add("order=edf+bf=conservative")
	f.Add("order=edf")
	f.Add("srpt")
	f.Add("edf.preempt")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) returned invalid spec %+v: %v", in, s, err)
		}
		c := s.Canonical()
		s2, err := ParseSpec(c)
		if err != nil {
			t.Fatalf("canonical %q of %q does not re-parse: %v", c, in, err)
		}
		if s2.Canonical() != c {
			t.Fatalf("canonical unstable: %q -> %q", c, s2.Canonical())
		}
		// Components must survive the round trip (keys may differ: a
		// registered name keeps its name, the chain takes the canonical).
		a, b := s, s2
		a.Key, b.Key = "", ""
		if a != b {
			t.Fatalf("round trip changed components: %+v -> %+v", a, b)
		}
		if pol := MustNew(s); pol == nil {
			t.Fatal("nil policy")
		}
	})
}

// FuzzQueueKeyOrder drives checkQueueSorter: the priority-key sort of every
// order (edf under a random SLO context) must equal sort.SliceStable over
// the comparator oracle on random queues, and report a change exactly when
// its input was out of order.
func FuzzQueueKeyOrder(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(2))
	f.Add(int64(3), uint8(17))
	f.Add(int64(4), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		checkQueueSorter(t, rand.New(rand.NewSource(seed)), int(n%64))
	})
}

// FuzzKeptQueue drives checkKeptQueue: under every static order and kept
// engine, with users flagged at risk mid-run, every scheduling pass must
// leave the queue a full re-sort over the comparator oracle would give.
func FuzzKeptQueue(f *testing.F) {
	f.Add(int64(1), uint8(5))
	f.Add(int64(2), uint8(20))
	f.Add(int64(3), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		checkKeptQueue(t, rand.New(rand.NewSource(seed)), int(n%64))
	})
}
