package sim

import "fairsched/internal/job"

// recordIndex maps job ids to their records. Workload id spaces are dense
// in practice (SWF job numbers and the synthetic generator both count up
// from 1, and split segments allocate sequentially above the workload
// maximum), so the index is a flat slice keyed by id — the per-event map
// traffic of the old records map (every Start and release did a hash
// lookup) becomes an array index. A map fallback covers adversarial
// id spaces (library callers are free to use any positive int64), chosen
// once per run from the workload's maximum id.
type recordIndex struct {
	dense  []*Record
	sparse map[job.ID]*Record
}

// newRecordIndex sizes the index for a workload of n jobs with ids up to
// maxID. The dense layout is used when the id space wastes at most a small
// constant factor over the workload size; headroom for split-segment ids
// (allocated sequentially above maxID) is reserved up front.
func newRecordIndex(n int, maxID job.ID) recordIndex {
	if int64(maxID) <= 2*int64(n)+64 {
		return recordIndex{dense: make([]*Record, int(maxID)+1, int(maxID)+1+n/4+1)}
	}
	return recordIndex{sparse: make(map[job.ID]*Record, n)}
}

// get returns the record for id, nil when the id was never put.
func (x *recordIndex) get(id job.ID) *Record {
	if x.sparse != nil {
		return x.sparse[id]
	}
	if i := int(id); i >= 0 && i < len(x.dense) {
		return x.dense[i]
	}
	return nil
}

// put stores the record for id, growing the dense slice when a split
// segment's id lands past the current end.
func (x *recordIndex) put(id job.ID, rec *Record) {
	if x.sparse != nil {
		x.sparse[id] = rec
		return
	}
	i := int(id)
	for i >= len(x.dense) {
		x.dense = append(x.dense, nil)
	}
	x.dense[i] = rec
}
