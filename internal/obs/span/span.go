// Package span implements hierarchical span tracing for one query
// execution: a bounded tree of named time intervals, where each subspace
// worker records its own timeline. It is the one tracing mechanism: the
// flat per-phase aggregate (Tracer.PhaseTimings) is derived from the
// tree. A span may carry a stats.Snapshot work delta, so a retained
// trace explains both *where* the time went and *what* was done there.
//
// The package sits in the observability leaf band next to
// internal/obs/flight: it may import only internal/obs (phase-timing
// shape) and internal/stats (work counters). The flight recorder
// references *Tree values in retained records; the server renders them
// as Chrome trace-event JSON.
//
// Emission is allocation-free apart from the bounded arena append: a
// nil *Tracer (tracing off) and the zero Span are safe no-ops on every
// method, so the algorithms thread spans through unconditionally — the
// same discipline as *stats.Stats.
package span

import (
	"sync"
	"time"

	"spatialseq/internal/stats"
)

// Tree-size bounds: a buggy caller cannot grow a request's span tree
// without limit. Spans beyond
// either bound are dropped (counted, with their whole subtree).
const (
	DefaultMaxNodes = 512
	DefaultMaxDepth = 8
)

// noID marks a span handle whose node was dropped by the tree bounds;
// children of a dropped span are dropped (and counted) too.
const noID = int32(-1)

// node is one span in the arena. Offsets are nanoseconds since the
// tracer's epoch, from the monotonic clock; endNS < 0 means still open.
type node struct {
	name     string
	parent   int32 // arena index; -1 for roots
	worker   int32 // worker lane; -1 when inherited from no worker span
	subspace int32 // subspace index; -1 unless tagged by Subspace
	depth    int16
	hasWork  bool
	startNS  int64
	endNS    int64
	work     stats.Snapshot
}

// Tracer owns one query's span arena. One Tracer covers one query
// execution and is safe for concurrent use by parallel workers. A nil
// *Tracer is a no-op everywhere; allocate one per query only when span
// tracing is wanted.
type Tracer struct {
	mu       sync.Mutex
	epoch    time.Time // monotonic anchor for all offsets
	wallNS   int64     // wall-clock time of offset 0 (for absolute export)
	maxNodes int
	maxDepth int
	dropped  int64
	nodes    []node
}

// NewTracer returns a tracer with the default tree bounds.
func NewTracer() *Tracer {
	return NewTracerLimits(DefaultMaxNodes, DefaultMaxDepth)
}

// NewTracerLimits returns a tracer bounded to maxNodes spans and
// maxDepth nesting levels; non-positive arguments take the defaults.
func NewTracerLimits(maxNodes, maxDepth int) *Tracer {
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	capHint := 64
	if capHint > maxNodes {
		capHint = maxNodes
	}
	now := time.Now()
	return &Tracer{
		epoch:    now,
		wallNS:   now.UnixNano(),
		maxNodes: maxNodes,
		maxDepth: maxDepth,
		nodes:    make([]node, 0, capHint),
	}
}

// Span is a handle on one node of a tracer's arena. The zero Span (from
// a nil Tracer) is a no-op on every method and yields no-op children, so
// callers never branch on whether tracing is enabled.
type Span struct {
	t      *Tracer
	id     int32
	depth  int16
	worker int32
}

// Root opens a top-level span. A nil tracer yields the no-op zero Span.
//
//seq:hotpath
func (t *Tracer) Root(name string) Span {
	if t == nil {
		return Span{}
	}
	return t.add(name, noID, 0, noID, noID)
}

// Child opens a sub-span of s, inheriting s's worker lane.
//
//seq:hotpath
func (s Span) Child(name string) Span {
	return s.open(name, s.worker, noID)
}

// Worker opens a sub-span tagged with a worker lane: one long-lived
// worker's timeline (the DFS-Prune baseline's single lane). Descendant
// spans inherit the lane, so every interval lands on the right track of
// the export.
//
//seq:hotpath
func (s Span) Worker(name string, w int) Span {
	return s.open(name, int32(w), noID)
}

// Subspace opens a sub-span tagged with the subspace index it searches.
//
//seq:hotpath
func (s Span) Subspace(name string, idx int) Span {
	return s.open(name, s.worker, int32(idx))
}

// Unit opens a sub-span tagged with both a worker lane and a subspace
// index: one stolen work unit (a subspace prep, or a chunk of a
// subspace's root candidates) executed by worker w. HSP and LORA emit
// these directly under the algorithm root, for any worker count —
// there is no long-lived per-goroutine container span, because a worker
// parked on the scheduler is idle and must not count as busy in
// Tree.Skew's imbalance accounting.
//
//seq:hotpath
func (s Span) Unit(name string, w, idx int) Span {
	return s.open(name, int32(w), int32(idx))
}

//seq:hotpath
func (s Span) open(name string, worker, subspace int32) Span {
	if s.t == nil {
		return Span{}
	}
	if s.id == noID {
		// Child of a dropped span: the subtree is truncated, and every
		// suppressed node counts toward Dropped.
		s.t.drop()
		return Span{t: s.t, id: noID, depth: s.depth + 1, worker: worker}
	}
	return s.t.add(name, s.id, s.depth+1, worker, subspace)
}

//seq:hotpath
func (t *Tracer) add(name string, parent int32, depth int16, worker, subspace int32) Span {
	start := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(depth) >= t.maxDepth || len(t.nodes) >= t.maxNodes {
		t.dropped++
		return Span{t: t, id: noID, depth: depth, worker: worker}
	}
	id := int32(len(t.nodes))
	//lint:ignore hotpathalloc arena append is bounded by maxNodes; growth beyond the initial capacity amortises across the query
	t.nodes = append(t.nodes, node{
		name:     name,
		parent:   parent,
		worker:   worker,
		subspace: subspace,
		depth:    depth,
		startNS:  start,
		endNS:    -1,
	})
	return Span{t: t, id: id, depth: depth, worker: worker}
}

//seq:hotpath
func (t *Tracer) drop() {
	t.mu.Lock()
	t.dropped++
	t.mu.Unlock()
}

// End closes the span at the current time. Ending twice keeps the first
// end; ending the zero Span is a no-op.
//
//seq:hotpath
func (s Span) End() {
	if s.t == nil || s.id == noID {
		return
	}
	end := int64(time.Since(s.t.epoch))
	s.t.mu.Lock()
	if n := &s.t.nodes[s.id]; n.endNS < 0 {
		n.endNS = end
	}
	s.t.mu.Unlock()
}

// EndWork closes the span and attaches the work-counter delta performed
// inside it (per-subspace counters, not the query-wide running totals).
//
//seq:hotpath
func (s Span) EndWork(delta stats.Snapshot) {
	if s.t == nil || s.id == noID {
		return
	}
	end := int64(time.Since(s.t.epoch))
	s.t.mu.Lock()
	if n := &s.t.nodes[s.id]; n.endNS < 0 {
		n.endNS = end
		n.work = delta
		n.hasWork = true
	}
	s.t.mu.Unlock()
}

// Dropped reports how many spans the tree bounds discarded, feeding the
// truncation metric spatialseq_spans_dropped_total.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
