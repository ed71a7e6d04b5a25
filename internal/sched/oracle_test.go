package sched

import (
	"cmp"
	"fmt"
	"math/bits"

	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// arrivalLess is the FCFS tie-break: submission time then job id.
func arrivalLess(a, b *job.Job) bool {
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// lessOracle is the comparator oracle: whether a schedules before b under
// o, restated from each order's definition without its key. The
// differential suites check every key sort, kept-queue insert and
// preemption ranking against it. Every order ties FCFS.
func lessOracle(o Order, env sim.Env, a, b *job.Job) bool {
	switch o := o.(type) {
	case fcfsOrder:
	case fairshareOrder:
		fs := env.Fairshare()
		if ua, ub := fs.Usage(a.User), fs.Usage(b.User); ua != ub {
			return ua < ub
		}
	case sjfOrder:
		if a.Estimate != b.Estimate {
			return a.Estimate < b.Estimate
		}
	case lxfOrder:
		if c := lxfCompare(env.Now(), a, b); c != 0 {
			return c > 0 // the larger expansion factor first
		}
	case widestOrder:
		if a.Nodes != b.Nodes {
			return a.Nodes > b.Nodes
		}
	case narrowestOrder:
		if a.Nodes != b.Nodes {
			return a.Nodes < b.Nodes
		}
	case *edfOrder:
		if ra, rb := o.ctx.atRisk(a), o.ctx.atRisk(b); ra != rb {
			return ra
		}
		da, oka := o.ctx.deadline(a)
		db, okb := o.ctx.deadline(b)
		if oka != okb {
			return oka // targeted jobs ahead of untargeted ones
		}
		if oka && da != db {
			return da < db
		}
	default:
		panic(fmt.Sprintf("lessOracle: no oracle for order %s", o.Name()))
	}
	return arrivalLess(a, b)
}

// lxfCompare compares a's and b's exact expansion factors at now,
// (now − submit + est)/est with an estimate below 1 counted as 1, without
// division: it cross-multiplies by the estimates in 128 bits, so no
// product wraps. Both jobs must be submitted by now.
func lxfCompare(now int64, a, b *job.Job) int {
	ea, eb := max(a.Estimate, 1), max(b.Estimate, 1)
	xh, xl := bits.Mul64(uint64(now-a.Submit+ea), uint64(eb))
	yh, yl := bits.Mul64(uint64(now-b.Submit+eb), uint64(ea))
	if xh != yh {
		return cmp.Compare(xh, yh)
	}
	return cmp.Compare(xl, yl)
}
