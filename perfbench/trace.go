package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Op kinds: set-up repetitions, the workload's ops, and the layer probes
// that run a workload's calls one by one outside its op.
const (
	kindSetup = "setup"
	kindOp    = "op"
	kindProbe = "probe"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is the index of the enclosing span, -1 for an
// op's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Kind   string `json:"kind"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-op counts in memory. It is safe for
// concurrent use, so fleet workers can record into it.
type tracer struct {
	mu     sync.Mutex
	base   time.Time
	spans  []span
	counts map[int]map[string]float64 // op id -> count name -> sum
	op     int
	kind   string
	root   int
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), counts: map[int]map[string]float64{}, root: -1}
}

// beginOp opens a new op of the given kind; spans begun until endOp
// nest under its root span.
func (t *tracer) beginOp(kind, name string) {
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	t.kind = kind
	t.spans = append(t.spans, span{Name: name, Op: t.op, Kind: kind, Parent: -1, Start: now})
	t.root = len(t.spans) - 1
}

func (t *tracer) endOp() {
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[t.root].End = now
	t.root = -1
}

// begin opens a span under the current op's root and returns its id.
func (t *tracer) begin(name string) int {
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: t.op, Kind: t.kind, Parent: t.root, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add accumulates a count for the current op.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.counts[t.op]
	if m == nil {
		m = map[string]float64{}
		t.counts[t.op] = m
	}
	m[name] += v
}

// timed runs f inside a span when t is non-nil.
func timed[T any](t *tracer, name string, f func() (T, error)) (T, error) {
	if t == nil {
		return f()
	}
	id := t.begin(name)
	defer t.end(id)
	return f()
}

// interval is a half-open [lo, hi) stretch of tracer time.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// opStats summarises one op from its spans: the self time of each span
// name in milliseconds (a span's duration minus the part its children
// cover), its counts, and the share of the root's wall time the root's
// children cover.
type opStats struct {
	kind     string
	values   map[string]float64
	coverage float64
}

// summarize groups spans by op.
func (t *tracer) summarize() map[int]*opStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]interval{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	ops := map[int]*opStats{}
	for i, s := range t.spans {
		o := ops[s.Op]
		if o == nil {
			o = &opStats{kind: s.Kind, values: map[string]float64{}}
			ops[s.Op] = o
		}
		self := s.End - s.Start - covered(s.Start, s.End, children[i])
		if s.Parent < 0 {
			if d := s.End - s.Start; d > 0 {
				o.coverage = 1 - float64(self)/float64(d)
			}
			continue
		}
		o.values[s.Name+"_ms"] += float64(self) / 1e6
	}
	for id, m := range t.counts {
		if o := ops[id]; o != nil {
			for k, v := range m {
				o.values[k] += v
			}
		}
	}
	return ops
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
