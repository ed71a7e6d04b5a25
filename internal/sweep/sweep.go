// Package sweep is the concurrent experiment engine: a bounded worker pool
// (Map) and, on top of it, the one campaign engine (Campaign) that fans
// (trace × scenario × seed × policy) simulation runs out across cores while
// keeping results in deterministic input order and capturing every per-run
// error.
//
// The simulator itself is strictly sequential (a discrete-event loop), but a
// study is embarrassingly parallel across runs: each (policy, workload)
// pair owns its simulator, policy instance, fairshare tracker and observers,
// and only reads the shared job slice. Package sweep exploits exactly that
// boundary and nothing finer, so a parallel sweep is byte-identical to a
// serial one — same summaries, same report — just faster.
package sweep

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// Workers resolves a parallelism request: n > 0 is taken as given, anything
// else (0, negative) means "one worker per available CPU".
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// RunError records the failure of one task in a sweep, keyed by the task's
// input index and a human label (the policy key, the seed, ...).
type RunError struct {
	Index int
	Label string
	Err   error
}

// Error implements error.
func (e *RunError) Error() string {
	if e.Label != "" {
		return fmt.Sprintf("run %d (%s): %v", e.Index, e.Label, e.Err)
	}
	return fmt.Sprintf("run %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// Errors aggregates every failed run of a sweep, in input order. Unlike a
// fail-fast pool, the sweep engine finishes every task and reports the full
// casualty list: a 500-seed overnight sweep should not discard 499 results
// because seed 17 hit a pathological trace.
type Errors struct {
	Runs []*RunError
}

// Error implements error.
func (e *Errors) Error() string {
	switch len(e.Runs) {
	case 0:
		return "sweep: no errors"
	case 1:
		return "sweep: " + e.Runs[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d runs failed:", len(e.Runs))
	for _, r := range e.Runs {
		b.WriteString("\n\t")
		b.WriteString(r.Error())
	}
	return b.String()
}

// Unwrap exposes the per-run errors to errors.Is/As.
func (e *Errors) Unwrap() []error {
	errs := make([]error, len(e.Runs))
	for i, r := range e.Runs {
		errs[i] = r
	}
	return errs
}

// Map runs fn over every item on at most parallel workers and returns the
// results in input order (results[i] corresponds to items[i], regardless of
// completion order). Every item is attempted; if any fail, Map returns a
// non-nil *Errors alongside the partial results (failed slots hold the zero
// R). label names an item in error messages; nil is allowed.
//
// parallel <= 0 means one worker per CPU. With parallel == 1 the items run
// on a single worker in input order — exactly the serial loop.
func Map[T, R any](parallel int, items []T, label func(T) string, fn func(int, T) (R, error)) ([]R, error) {
	n := len(items)
	results := make([]R, n)
	errs := make([]*RunError, n)
	workers := Workers(parallel)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, item := range items {
			runOne(i, item, results, errs, label, fn)
		}
	} else {
		indices := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range indices {
					runOne(i, items[i], results, errs, label, fn)
				}
			}()
		}
		for i := 0; i < n; i++ {
			indices <- i
		}
		close(indices)
		wg.Wait()
	}
	var failed []*RunError
	for _, e := range errs {
		if e != nil {
			failed = append(failed, e)
		}
	}
	if len(failed) > 0 {
		return results, &Errors{Runs: failed}
	}
	return results, nil
}

// runOne executes one task, converting a panic in fn (or label) into a
// captured error so a single diverging run cannot take down the whole sweep.
func runOne[T, R any](i int, item T, results []R, errs []*RunError, label func(T) string, fn func(int, T) (R, error)) {
	name := ""
	defer func() {
		if p := recover(); p != nil {
			errs[i] = &RunError{Index: i, Label: name, Err: fmt.Errorf("panic: %v", p)}
		}
	}()
	if label != nil {
		name = label(item)
	}
	r, err := fn(i, item)
	if err != nil {
		errs[i] = &RunError{Index: i, Label: name, Err: err}
		return
	}
	results[i] = r
}
