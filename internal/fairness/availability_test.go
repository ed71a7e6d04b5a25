package fairness

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"fairsched/internal/job"
	"fairsched/internal/sim"
)

func TestAvailabilityInitFromState(t *testing.T) {
	running := []sim.RunningJob{
		{Job: &job.Job{ID: 1, Nodes: 4, Runtime: 100}, Start: 50},
		{Job: &job.Job{ID: 2, Nodes: 2, Runtime: 300}, Start: 0},
	}
	a := newAvailability(100, 10, running)
	if a.Total() != 16 {
		t.Fatalf("total = %d, want 16", a.Total())
	}
}

func TestAllocateImmediate(t *testing.T) {
	a := newAvailability(100, 8, nil)
	start, err := a.allocate(4, 60)
	if err != nil || start != 100 {
		t.Fatalf("allocate = %d,%v want 100", start, err)
	}
	// 4 nodes free now, 4 more at 160.
	start, err = a.allocate(8, 10)
	if err != nil || start != 160 {
		t.Fatalf("second allocate = %d,%v want 160", start, err)
	}
}

func TestAllocateNthSmallest(t *testing.T) {
	running := []sim.RunningJob{
		{Job: &job.Job{ID: 1, Nodes: 3, Runtime: 100}, Start: 0}, // frees at 100
		{Job: &job.Job{ID: 2, Nodes: 3, Runtime: 200}, Start: 0}, // frees at 200
	}
	a := newAvailability(10, 2, running)
	// Needs 4: 2 free now + 2 of the 3 freeing at 100 -> start 100.
	start, err := a.allocate(4, 50)
	if err != nil || start != 100 {
		t.Fatalf("allocate = %d,%v want 100", start, err)
	}
	// Needs 4: leftover 1 at 100, next free at 150 (3 from the first
	// allocation) -> cumulative 4 at 150.
	start, err = a.allocate(4, 10)
	if err != nil || start != 150 {
		t.Fatalf("allocate = %d,%v want 150", start, err)
	}
}

func TestAllocateTooWide(t *testing.T) {
	a := newAvailability(0, 4, nil)
	if _, err := a.allocate(5, 10); err == nil {
		t.Fatal("allocation beyond total accepted")
	}
}

func TestAllocateConservesTotal(t *testing.T) {
	a := newAvailability(0, 8, nil)
	for i := 0; i < 20; i++ {
		if _, err := a.allocate(3, 50); err != nil {
			t.Fatal(err)
		}
		if a.Total() != 8 {
			t.Fatalf("total drifted to %d", a.Total())
		}
	}
}

// TestRemoveInvertsAdd: remove deletes exactly what add inserted, merging
// and unmerging equal times, and errors on absent entries.
func TestRemoveInvertsAdd(t *testing.T) {
	a := &availability{}
	a.add(100, 4)
	a.add(100, 2)
	a.add(50, 3)
	if err := a.remove(100, 4); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 5 {
		t.Fatalf("total = %d, want 5", a.Total())
	}
	if err := a.remove(100, 3); err == nil {
		t.Fatal("removed more nodes than the entry holds")
	}
	if err := a.remove(70, 1); err == nil {
		t.Fatal("removed from a time with no entry")
	}
	if err := a.remove(100, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.remove(50, 3); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 0 || len(a.live()) != 0 {
		t.Fatalf("multiset not empty after removing everything: %+v", a)
	}
}

// TestCopyFromAndReset: the scratch-reuse helpers preserve content and keep
// the copy independent of the source.
func TestCopyFromAndReset(t *testing.T) {
	src := &availability{}
	src.add(10, 2)
	src.add(20, 5)
	var dst availability
	dst.copyFrom(src)
	if dst.Total() != 7 || len(dst.live()) != 2 {
		t.Fatalf("copy = %+v", dst)
	}
	if _, err := dst.allocate(6, 100); err != nil {
		t.Fatal(err)
	}
	if src.Total() != 7 || len(src.live()) != 2 || src.live()[0] != (availEntry{t: 10, n: 2}) {
		t.Fatalf("source mutated by copy's allocation: %+v", src)
	}
	dst.reset()
	if dst.Total() != 0 || len(dst.live()) != 0 {
		t.Fatalf("reset left %+v", dst)
	}
}

// TestAllocateDoesNotPinBackingArray: repeated allocations advance the head
// and reuse the vacated slots, so the backing array does not grow across a
// long run.
func TestAllocateDoesNotPinBackingArray(t *testing.T) {
	a := &availability{}
	a.add(0, 8)
	for i := 0; i < 1000; i++ {
		if _, err := a.allocate(8, 10); err != nil {
			t.Fatal(err)
		}
	}
	if cap(a.entries) > 16 {
		t.Fatalf("backing array grew to %d entries over steady-state allocations", cap(a.entries))
	}
	// Three single-node entries, one consumed and one appended per
	// allocation: the live set never empties, so only compaction bounds
	// the array.
	a.reset()
	for at := range int64(3) {
		a.add(at, 1)
	}
	for i := 0; i < 1000; i++ {
		if _, err := a.allocate(1, 3); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.live()) != 3 || cap(a.entries) > 16 {
		t.Fatalf("%d live entries in a backing array of %d over steady-state allocations", len(a.live()), cap(a.entries))
	}
}

// TestQuickAllocateMatchesPerNodeReference checks the RLE multiset against
// a brute-force per-node list scheduler (the paper's formulation).
func TestQuickAllocateMatchesPerNodeReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(20) + 4
		now := rng.Int63n(100)

		// Reference: per-node completion times.
		nodes := make([]int64, size)
		for i := range nodes {
			if rng.Intn(2) == 0 {
				nodes[i] = now + rng.Int63n(200)
			} else {
				nodes[i] = now
			}
		}
		// Build the RLE multiset with the same initial times.
		a := &availability{}
		for _, ct := range nodes {
			a.add(ct, 1)
		}

		for step := 0; step < 15; step++ {
			need := rng.Intn(size) + 1
			runtime := rng.Int63n(100) + 1

			// Reference: the job starts at the need-th smallest completion
			// time and occupies the `need` earliest-available nodes (equal
			// times are interchangeable).
			idx := make([]int, size)
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(i, k int) bool { return nodes[idx[i]] < nodes[idx[k]] })
			wantStart := nodes[idx[need-1]]
			for _, i := range idx[:need] {
				nodes[i] = wantStart + runtime
			}

			got, err := a.allocate(need, runtime)
			if err != nil {
				return false
			}
			if got != wantStart {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzAvailabilityOps drives two multisets through random add, remove,
// allocate, copyFrom and reset sequences against the paper's per-node
// formulation ("a completion time for each node"): Total, every allocation's
// start and every error must match, the live entries must be the per-node
// times run-length encoded in order, and the backing array must stay within
// a constant factor of the largest live size.
func FuzzAvailabilityOps(f *testing.F) {
	f.Add([]byte{0, 3, 4, 0, 9, 2, 2, 5, 7, 2, 1, 3, 0, 0, 6, 1, 9, 1})
	f.Add([]byte{0, 30, 7, 0, 1, 7, 2, 13, 9, 3, 0, 0, 130, 2, 2, 0, 0, 5, 1, 0, 5, 4, 0, 0})
	f.Add([]byte{0, 0, 7, 2, 6, 1, 2, 6, 1, 2, 6, 1, 0, 1, 3, 0, 2, 3, 1, 2, 3, 2, 0, 1})
	f.Fuzz(checkAvailabilityOps)
}

func checkAvailabilityOps(t *testing.T, data []byte) {
	if len(data) > 3*96 {
		data = data[:3*96] // the per-op reference check is linear in the ops so far
	}
	var sets [2]availability
	var refs [2][]int64 // per-node release times
	var maxLive [2]int
	for ; len(data) >= 3; data = data[3:] {
		op, x, y := data[0], data[1], data[2]
		k := int(op >> 7)
		a, ref := &sets[k], &refs[k]
		switch op % 5 {
		case 0:
			at, n := int64(x%32), int(y%8)
			a.add(at, n)
			for ; n > 0; n-- {
				*ref = append(*ref, at)
			}
		case 1:
			at, n := int64(x%32), int(y%8)+1
			err := a.remove(at, n)
			if have := countOf(*ref, at); have < n {
				if err == nil {
					t.Fatalf("remove(%d, %d) of %d nodes succeeded", at, n, have)
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := len(*ref) - 1; n > 0; i-- {
				if (*ref)[i] == at {
					*ref = slices.Delete(*ref, i, i+1)
					n--
				}
			}
		case 2:
			nodes, runtime := int(x%16)+1, int64(y%32)
			start, err := a.allocate(nodes, runtime)
			if nodes > len(*ref) {
				if err == nil {
					t.Fatalf("allocate(%d) on %d nodes succeeded", nodes, len(*ref))
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(*ref)
			if want := (*ref)[nodes-1]; start != want {
				t.Fatalf("allocate(%d, %d) started at %d, per-node reference %d", nodes, runtime, start, want)
			}
			for i := range nodes {
				(*ref)[i] = start + runtime
			}
		case 3:
			a.copyFrom(&sets[1-k])
			*ref = slices.Clone(refs[1-k])
		case 4:
			a.reset()
			*ref = (*ref)[:0]
		}
		if a.Total() != len(*ref) {
			t.Fatalf("Total() = %d, per-node reference holds %d", a.Total(), len(*ref))
		}
		slices.Sort(*ref)
		var want []availEntry
		for _, at := range *ref {
			if n := len(want); n > 0 && want[n-1].t == at {
				want[n-1].n++
			} else {
				want = append(want, availEntry{t: at, n: 1})
			}
		}
		if !slices.Equal(a.live(), want) {
			t.Fatalf("live entries %v, per-node reference %v", a.live(), want)
		}
		maxLive[k] = max(maxLive[k], len(want))
		if cap(a.entries) > 4*maxLive[k]+8 {
			t.Fatalf("backing array holds %d entries for at most %d live", cap(a.entries), maxLive[k])
		}
	}
}

func countOf(ref []int64, at int64) int {
	n := 0
	for _, t := range ref {
		if t == at {
			n++
		}
	}
	return n
}
