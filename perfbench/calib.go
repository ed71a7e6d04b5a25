package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: the same pass runs 20–40%
// slower for seconds to minutes at a time, while process CPU time tracks
// wall time. The time metrics are therefore scaled to a reference host
// speed. Around each cell (and before each set-up) the benchmark times a
// fixed kernel that uses none of the repository's code, and scales the
// cell's time by calibRef over the kernel's time: a cell that ran while the
// kernel took 1.3 × calibRef counts as its time ÷ 1.3. A change to the
// program moves the cell time and not the kernel's, so it moves the scaled
// time in full.

// calibRef is the kernel's median time on the baseline host (a 2-vCPU
// x86-64 Linux VM, 2.1 GHz, Go 1.24): scaled times read as seconds on that
// host at its median speed.
const calibRef = 115500 * time.Microsecond

// kernelBufs are one kernel run's buffers; workers calibrate concurrently,
// so each takes its own from the pool.
type kernelBufs struct {
	keys []int
	m    map[int]int
	sink int
}

var kernelPool = sync.Pool{New: func() any {
	return &kernelBufs{keys: make([]int, 100_000), m: make(map[int]int, 32_768)}
}}

// calibrate times one run of the kernel: ten rounds of filling and sorting
// 10^5 pseudo-random ints and inserting 2·10^4 of them into a map, from a
// fixed seed. It first runs a garbage collection, so that no collection
// started by the program's allocations shares the kernel's processor, and
// allocates its buffers before the clock starts. It returns the kernel's
// time and the whole call's, collection included, which the caller takes
// out of its own timings.
func calibrate() (kernel, cost time.Duration) {
	start := time.Now()
	runtime.GC()
	b := kernelPool.Get().(*kernelBufs)
	defer kernelPool.Put(b)
	r := rand.New(rand.NewSource(1))
	t0 := time.Now()
	for k := 0; k < 10; k++ {
		for i := range b.keys {
			b.keys[i] = r.Int()
		}
		sort.Ints(b.keys)
		clear(b.m)
		for i := 0; i < 20_000; i++ {
			b.m[b.keys[i*5]&0xffffff] += i
		}
		b.sink += b.keys[k] + len(b.m)
	}
	end := time.Now()
	return end.Sub(t0), end.Sub(start)
}

// scaled is d at the reference host speed, given the kernel's time c
// measured next to it.
func scaled(d, c time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calibRef) / float64(c))
}
