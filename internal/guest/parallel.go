package guest

import (
	"runtime"
	"sync"
)

// RunDigestParallel is RunDigest with row-level parallelism: within one
// guest step every cell depends only on the previous row, so the row is
// sharded across workers goroutines (0 means GOMAXPROCS; rows under 256
// cells run on one). Database updates stay per-cell sequential, so the
// result does not depend on the worker count; tests assert it. The host
// engines use it for verification of large runs.
func RunDigestParallel(spec Spec, workers int) (*DigestResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := spec.Graph.NumNodes()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if m < 256 {
		workers = 1
	}
	workers = min(workers, m)
	dbs := make([]Database, m)
	if spec.NewDatabase == nil {
		// The default databases share one backing slice.
		mixes := make([]MixDB, m)
		for i := range dbs {
			mixes[i].Reset(i, spec.Seed)
			dbs[i] = &mixes[i]
		}
	} else {
		for i := range dbs {
			dbs[i] = spec.NewDatabase(i, spec.Seed)
		}
	}
	prev := make([]uint64, m)
	next := make([]uint64, m)
	for i := range prev {
		prev[i] = spec.InitialValue(i)
	}
	// row computes cells [lo, hi) of step t from prev into next.
	row := func(lo, hi, t int) {
		var scratch [8]uint64
		for i := lo; i < hi; i++ {
			nv := scratch[:0]
			for _, j := range spec.Graph.Neighbors(i) {
				nv = append(nv, prev[j])
			}
			v := spec.Compute(dbs[i].Digest(), i, t, prev[i], nv)
			next[i] = v
			dbs[i].Apply(Update{Node: i, Step: t, Val: v})
		}
	}

	// static sharding: worker w owns cells [bounds[w], bounds[w+1])
	bounds := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		bounds[w] = w * m / workers
	}
	var wg sync.WaitGroup
	for t := 1; t <= spec.Steps; t++ {
		if workers == 1 {
			row(0, m, t)
		} else {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					row(lo, hi, t)
				}(bounds[w], bounds[w+1])
			}
			wg.Wait()
		}
		prev, next = next, prev
	}

	out := &DigestResult{
		LastRow:      append([]uint64(nil), prev...),
		FinalDigests: make([]uint64, m),
		Work:         int64(m) * int64(spec.Steps),
	}
	h := uint64(0x9216d5d98979fb1b)
	for i, db := range dbs {
		out.FinalDigests[i] = db.Digest()
	}
	for _, v := range out.LastRow {
		h = combine(h, v)
	}
	for _, v := range out.FinalDigests {
		h = combine(h, v)
	}
	out.Checksum = h
	return out, nil
}
