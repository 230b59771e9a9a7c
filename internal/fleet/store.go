// Package fleet is the sharded sweep harness: it fans thousands of
// verify-generated scenarios (plus the Section 4 clique-chain ladder)
// across worker processes, measures each one once, and joins the measured
// slowdowns against the analytical twin's predictions (internal/twin).
//
// Results live in resumable JSONL stores keyed by a content hash of the
// scenario spec. A store is written strictly in plan order by a single
// writer, so a killed-then-resumed run produces a byte-identical file to
// an uninterrupted one: reopening truncates any torn tail line, already-
// stored keys are skipped, and the remainder is appended in the same
// order. Merging shard stores is a pure function of their contents
// (dedup by key, sort by plan index), so merge order never matters.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"

	"latencyhide/internal/twin"
)

// Result is one measured scenario joined with the twin's prediction —
// one JSONL line in a store. Every field is deterministic (no wall-clock,
// no hostnames), which is what makes byte-identical resume possible.
type Result struct {
	// Key is the fnv64a content hash of Kind+Spec — the store's identity.
	Key string `json:"key"`
	// Index is the item's position in the fleet plan; stores are written
	// and merged in increasing index order.
	Index int `json:"index"`
	// Kind is "verify" (generator scenario) or "cc" (clique-chain ladder).
	Kind string `json:"kind"`
	// Spec reconstructs the item: a verify.Scenario spec or a cc ladder
	// spec "k=K;steps=T;seed=S".
	Spec string `json:"spec"`
	// Family is the twin theorem family the item was scored against.
	Family string `json:"family"`
	// Stats are the closed-form topology statistics the twin consumed.
	Stats twin.Stats `json:"stats"`
	// Slowdown and HostSteps are the measured engine outcome.
	Slowdown  float64 `json:"slowdown"`
	HostSteps int64   `json:"hostSteps"`
	// Predicted is the twin's band for this scenario (frozen constants).
	Predicted twin.Band `json:"predicted"`
}

// Key hashes an item's kind and spec into the store identity.
func Key(kind, spec string) string {
	h := fnv.New64a()
	io.WriteString(h, kind)
	io.WriteString(h, "\x00")
	io.WriteString(h, spec)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Store is an append-only JSONL result store with content-hash dedup.
// One Store has one writer; concurrent readers use Results' copies.
type Store struct {
	path  string
	f     *os.File
	byKey map[string]struct{}
	items []Result
}

// Open opens (or creates) a store, loading every intact line and
// truncating a torn tail — the half-written last line a killed process
// leaves behind. The returned store is ready for in-order appends.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// One read sized from Stat: io.ReadAll would regrow its buffer by
	// doubling, copying a large store several times.
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	data := make([]byte, fi.Size())
	n, err := io.ReadFull(f, data)
	if err != nil && err != io.ErrUnexpectedEOF {
		f.Close()
		return nil, err
	}
	data = data[:n]
	s := &Store{path: path, f: f, byKey: map[string]struct{}{}}
	good := 0 // byte offset after the last intact line
	for len(data) > good {
		nl := bytes.IndexByte(data[good:], '\n')
		if nl < 0 {
			break // no terminating newline: torn tail
		}
		line := data[good : good+nl]
		var r Result
		if err := json.Unmarshal(line, &r); err != nil || r.Key == "" {
			break // torn or corrupt: drop this line and everything after
		}
		if _, dup := s.byKey[r.Key]; !dup {
			s.byKey[r.Key] = struct{}{}
			s.items = append(s.items, r)
		}
		good += nl + 1
	}
	if good != len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Has reports whether a result with this key is already stored.
func (s *Store) Has(key string) bool {
	_, ok := s.byKey[key]
	return ok
}

// Len is the number of stored results.
func (s *Store) Len() int { return len(s.items) }

// Append writes one result line. Appending an already-stored key is a
// no-op (idempotence is what makes kill/resume sequences lossless); the
// caller is responsible for appending in plan order.
func (s *Store) Append(r Result) error {
	if s.Has(r.Key) {
		return nil
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := s.f.Write(line); err != nil {
		return err
	}
	s.byKey[r.Key] = struct{}{}
	s.items = append(s.items, r)
	return nil
}

// Results returns a copy of the stored results sorted by plan index.
func (s *Store) Results() []Result {
	out := make([]Result, len(s.items))
	copy(out, s.items)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Sync flushes the store to disk.
func (s *Store) Sync() error { return s.f.Sync() }

// Close closes the underlying file.
func (s *Store) Close() error { return s.f.Close() }

// ReadAll loads, dedups (by key) and index-sorts the results of several
// stores — the join step of `latencysim twin -report` over shard files.
// Dedup keeps the first occurrence, and since a key determines its spec
// (and therefore its deterministic measurement), overlapping stores can
// never disagree about a kept result.
func ReadAll(paths ...string) ([]Result, error) {
	seen := map[string]struct{}{}
	var out []Result
	for _, p := range paths {
		s, err := Open(p)
		if err != nil {
			return nil, err
		}
		for _, r := range s.items {
			if _, dup := seen[r.Key]; !dup {
				seen[r.Key] = struct{}{}
				out = append(out, r)
			}
		}
		s.Close()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, nil
}

// Merge writes the deduped, index-sorted union of the source stores to
// dst (atomically, via rename). Merging is idempotent and order-free:
// any sequence of merges over the same shard files yields byte-identical
// output.
func Merge(dst string, srcs ...string) error {
	results, err := ReadAll(srcs...)
	if err != nil {
		return err
	}
	tmp := dst + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	for _, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		line = append(line, '\n')
		if _, err := f.Write(line); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, dst)
}
