package guest

import "fmt"

// An Op is the per-pebble computation: given the node's database digest at
// version step-1, the node and step, the node's own step-1 value and its
// neighbors' step-1 values (in increasing neighbor-id order), it returns the
// pebble value. Ops must be deterministic — the host simulation is verified
// value-for-value against the sequential reference executor running the same
// op. The default op is ComputeValue, the order-sensitive digest mixer;
// applications can supply real kernels (e.g. examples/heatring packs a
// float64 stencil into the value).
type Op func(dbDigest uint64, node, step int, self uint64, neighbors []uint64) uint64

// Spec fully determines a guest computation: the topology, the number of
// steps to run, the database implementation, the per-pebble op, and the seed
// from which all initial state derives.
type Spec struct {
	Graph Graph
	Steps int
	Seed  int64
	// NewDatabase creates each node's initial database. Nil means NewMixDB.
	NewDatabase Factory
	// Op is the pebble computation; nil means ComputeValue.
	Op Op
	// Init gives pebble (i, 0); nil means InitValue.
	Init func(node int, seed int64) uint64
}

// Factory returns the spec's database factory, defaulting to NewMixDB.
func (s Spec) Factory() Factory {
	if s.NewDatabase == nil {
		return NewMixDB
	}
	return s.NewDatabase
}

// Compute evaluates the spec's op (default ComputeValue).
func (s Spec) Compute(dbDigest uint64, node, step int, self uint64, neighbors []uint64) uint64 {
	if s.Op == nil {
		return ComputeValue(dbDigest, node, step, self, neighbors)
	}
	return s.Op(dbDigest, node, step, self, neighbors)
}

// InitialValue evaluates the spec's initial row (default InitValue).
func (s Spec) InitialValue(node int) uint64 {
	if s.Init == nil {
		return InitValue(node, s.Seed)
	}
	return s.Init(node, s.Seed)
}

// Validate checks the spec is runnable.
func (s Spec) Validate() error {
	if s.Graph == nil {
		return fmt.Errorf("guest: nil graph")
	}
	if s.Graph.NumNodes() < 1 {
		return fmt.Errorf("guest: empty graph")
	}
	if s.Steps < 0 {
		return fmt.Errorf("guest: negative step count %d", s.Steps)
	}
	return nil
}

// Result is the ground truth produced by the sequential reference executor.
type Result struct {
	Spec Spec
	// Values[t][i] is pebble (i, t); row 0 is the initial values.
	Values [][]uint64
	// FinalDigests[i] is node i's database digest after all updates.
	FinalDigests []uint64
	// Work is the total number of pebbles computed (m * Steps).
	Work int64
}

// Value returns pebble (node, step).
func (r *Result) Value(node, step int) uint64 { return r.Values[step][node] }

// Run executes the guest computation sequentially with unit delays and
// returns every pebble value. It is the correctness oracle for all host
// simulations. Memory is (Steps+1) * m * 8 bytes; use RunDigest for large
// parameter sweeps.
func Run(spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := spec.Graph.NumNodes()
	factory := spec.Factory()
	dbs := make([]Database, m)
	for i := range dbs {
		dbs[i] = factory(i, spec.Seed)
	}
	res := &Result{Spec: spec}
	res.Values = make([][]uint64, spec.Steps+1)
	row := make([]uint64, m)
	for i := range row {
		row[i] = spec.InitialValue(i)
	}
	res.Values[0] = row
	var scratch [8]uint64
	for t := 1; t <= spec.Steps; t++ {
		prev := res.Values[t-1]
		next := make([]uint64, m)
		for i := 0; i < m; i++ {
			ns := spec.Graph.Neighbors(i)
			nv := scratch[:0]
			for _, j := range ns {
				nv = append(nv, prev[j])
			}
			v := spec.Compute(dbs[i].Digest(), i, t, prev[i], nv)
			next[i] = v
			dbs[i].Apply(Update{Node: i, Step: t, Val: v})
		}
		res.Values[t] = next
		res.Work += int64(m)
	}
	res.FinalDigests = make([]uint64, m)
	for i, db := range dbs {
		res.FinalDigests[i] = db.Digest()
	}
	return res, nil
}

// DigestResult is the memory-light summary of a guest run.
type DigestResult struct {
	LastRow      []uint64 // pebble values at the final step
	FinalDigests []uint64 // database digests after all updates
	Checksum     uint64   // order-sensitive fold of LastRow then FinalDigests
	Work         int64
}

// RunDigest executes the guest computation keeping only two rows of pebbles,
// returning the final row and database digests. Suitable for large sweeps
// where storing the full grid would dominate memory. It is
// RunDigestParallel on one worker.
func RunDigest(spec Spec) (*DigestResult, error) {
	return RunDigestParallel(spec, 1)
}
