package sched

import (
	"fmt"
	"strconv"
	"strings"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/sim"
	"fairsched/internal/userdex"
)

// starvation is the starvation-promotion component (paper §2.1, §5.2): a
// job queued longer than wait moves from the main queue to an FCFS
// starvation queue — unless its user is classified heavy — and the first
// depth starvation-queue heads hold reservations every other job must
// respect.
type starvation struct {
	wait  int64
	heavy fairshare.HeavyClassifier
	depth int

	// live and seen are liveUsers' reused result buffer and seen-set (the
	// set is emptied again before liveUsers returns).
	live []int
	seen userdex.Map[struct{}]
}

// newStarvation builds the component from the spec's starvation axis;
// returns nil when the spec disables starvation.
func newStarvation(s Spec) *starvation {
	if s.Wait <= 0 {
		return nil
	}
	st := &starvation{wait: s.Wait, depth: s.Depth}
	if st.depth < 1 {
		st.depth = 1
	}
	st.heavy = heavyClassifier(s.Heavy)
	return st
}

// heavyClassifier resolves a (validated) heavy token to its classifier:
// all -> Never, nonheavy -> AboveMean, q<N> -> AboveQuantile(N/100),
// abs<S> -> AboveAbsolute(S proc-seconds).
func heavyClassifier(tok string) fairshare.HeavyClassifier {
	switch {
	case tok == HeavyNonheavy:
		return fairshare.AboveMean{}
	case strings.HasPrefix(tok, "q"):
		n, err := strconv.Atoi(tok[1:])
		if err != nil || n < 1 || n > 99 {
			panic(fmt.Sprintf("sched: unvalidated heavy quantile %q", tok))
		}
		return fairshare.AboveQuantile{Q: float64(n) / 100}
	case strings.HasPrefix(tok, "abs"):
		sec, err := ParseDur(tok[3:])
		if err != nil || sec <= 0 {
			panic(fmt.Sprintf("sched: unvalidated heavy threshold %q", tok))
		}
		return fairshare.AboveAbsolute{ProcSeconds: float64(sec)}
	default:
		return fairshare.Never{}
	}
}

// nextPromotion returns the earliest starvation-promotion instant strictly
// after now among the main-queue jobs.
func (st *starvation) nextPromotion(now int64, main []*job.Job) (int64, bool) {
	var t int64
	have := false
	for _, j := range main {
		e := j.Submit + st.wait
		if e > now && (!have || e < t) {
			t, have = e, true
		}
	}
	return t, have
}

// promote moves starvation-eligible jobs from main to the FCFS starvation
// queue and returns the two updated queues. Heavy users' jobs stay in the
// main queue and are re-evaluated at later events ("temporarily
// restricted"). The heavy threshold depends only on the live users and the
// tracker, neither of which the pass changes, so it is computed once, at the
// first eligible job.
func (st *starvation) promote(env sim.Env, main, starved []*job.Job) (m, s []*job.Job) {
	now := env.Now()
	_, never := st.heavy.(fairshare.Never)
	var limit float64
	haveLimit, appended := false, false
	kept := main[:0]
	for _, j := range main {
		if now-j.Submit < st.wait {
			kept = append(kept, j)
			continue
		}
		if !never {
			if !haveLimit {
				// Every job before j was kept, so main is still intact here.
				limit = st.heavy.Threshold(env.Fairshare(), st.liveUsers(env, main, starved))
				haveLimit = true
			}
			if env.Fairshare().Usage(j.User) > limit {
				kept = append(kept, j)
				continue
			}
		}
		starved = append(starved, j)
		appended = true
	}
	clear(main[len(kept):]) // drop moved jobs' pointers from the vacated tail
	if appended {
		// The standing starvation queue is already FCFS: only starts ever
		// remove from it, and they preserve order.
		sortFCFS(starved)
	}
	return kept, starved
}

// liveUsers returns the distinct users with queued or running jobs, for the
// heavy classifier, in order of first appearance (running, then starved,
// then main). The result lives in a buffer reused by the next call.
func (st *starvation) liveUsers(env sim.Env, main, starved []*job.Job) []int {
	out := st.live[:0]
	add := func(u int) {
		if _, ok := st.seen.Get(u); !ok {
			st.seen.Set(u, struct{}{})
			out = append(out, u)
		}
	}
	for _, r := range env.Running() {
		add(r.Job.User)
	}
	for _, j := range starved {
		add(j.User)
	}
	for _, j := range main {
		add(j.User)
	}
	for _, u := range out {
		st.seen.Delete(u)
	}
	st.live = out
	return out
}
