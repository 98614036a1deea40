package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a
// certification, a solve, a churn event) share Op; Parent is the ID of the
// span whose interval caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix before the first dot ("wire.encode" ->
// "wire").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// maxKeptSpans bounds the spans held for the span file; the per-layer self
// times cover every operation regardless.
const maxKeptSpans = 200000

// tracer records spans in memory. A nil *tracer is the untraced run: every
// method is a no-op, so workloads call it unconditionally. It is safe for
// concurrent use, because transport and wire spans arrive from the node
// goroutines of a distributed solve.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	nextID int64
	nextOp int64
	cur    []span // spans of the operation in flight, reused across operations
	kept   []span
	self   map[string]int64 // self ns per layer over finished operations
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: make(map[string]int64)}
}

// op starts a new operation and returns its ID.
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin reserves a span ID (so children can name it as their parent) and
// returns it with the start timestamp.
func (t *tracer) begin() (id, start int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	t.nextID++
	id = t.nextID
	t.mu.Unlock()
	return id, int64(time.Since(t.t0))
}

// end records the span begun as (id, start), ending now.
func (t *tracer) end(name string, id, parent, op, start int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.cur = append(t.cur, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: now})
	t.mu.Unlock()
}

// finishOp folds the spans recorded since the last call into the per-layer
// self times, keeps them for the span file while there is room, and clears
// the buffer. Call it between operations, once every goroutine that records
// spans for the finished one has stopped.
func (t *tracer) finishOp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for l, ns := range selfTimes(t.cur) {
		t.self[l] += ns
	}
	if len(t.kept)+len(t.cur) <= maxKeptSpans {
		t.kept = append(t.kept, t.cur...)
	}
	t.cur = t.cur[:0]
}

// selfMs is each layer's self time in ms summed over the finished
// operations.
func (t *tracer) selfMs() map[string]float64 {
	out := make(map[string]float64, len(t.self))
	for l, ns := range t.self {
		out[l] = float64(ns) / 1e6
	}
	return out
}

// write stores the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each layer's self time: the sum over its spans of the
// span's duration minus the part of that interval its children cover.
// Children may overlap one another (concurrent sends of one solve), so the
// covered part is the length of the union of their intervals, clipped to the
// parent's.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.layer()] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanPath names a run's span file inside the build directory.
func spanPath(workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", buildDir, workload, seed)
}
