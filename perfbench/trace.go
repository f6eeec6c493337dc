package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
)

// spanLayer charges the self time of an engine span, by name, to a
// per-layer metric. Sequential and work-stealing search paths name the
// same work differently (hsp.dfs on one worker lane, hsp.chunk units
// when stolen), so both names map to one metric. Names missing here (the
// search root, validate, worker lanes and subspace wrappers) stay in
// the written trace but are no layer metric.
var spanLayer = map[string]string{
	"hsp.simprep":    "simil.prep_ms",
	"lora.simprep":   "simil.prep_ms",
	"hsp.candidates": "hsp.prep_ms",
	"hsp.prep":       "hsp.prep_ms",
	"hsp.dfs":        "hsp.dfs_ms",
	"hsp.chunk":      "hsp.dfs_ms",
	"lora.sample":    "lora.sample_ms",
	"lora.prep":      "lora.sample_ms",
	"lora.enum":      "lora.enum_ms",
	"lora.chunk":     "lora.enum_ms",
	"topk.merge":     "topk.merge_ms",
}

// stealUnits are the span names of the work-stealing scheduler's units;
// the sched layer is present only in trees that contain them.
var stealUnits = map[string]bool{"hsp.prep": true, "hsp.chunk": true, "lora.prep": true, "lora.chunk": true}

// keepTrees bounds how many full engine span trees a traced run writes
// out: a 1M-POI LORA query records thousands of unit spans.
const keepTrees = 2

// benchSpan is one span the benchmark records around a public call.
type benchSpan struct {
	Name           string
	Query, Worker  int
	StartNS, EndNS int64
}

// tracer collects, in memory, the benchmark's own spans and the engine's
// span trees of one traced run, and aggregates per-layer self time.
type tracer struct {
	epoch time.Time
	spans []benchSpan
	trees []*span.Tree

	queries  int
	selfNS   map[string]int64
	seen     map[string]bool
	work     stats.Snapshot
	searchMS []float64

	imbalance, critShare, maxSubShare []float64

	parts     map[*partition.Partition]bool
	buildMS   []float64
	subspaces []float64
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		selfNS: make(map[string]int64),
		seen:   make(map[string]bool),
		parts:  make(map[*partition.Partition]bool),
	}
}

// span records one benchmark span.
func (t *tracer) span(name string, query, worker int, start, end time.Time) {
	t.spans = append(t.spans, benchSpan{
		Name: name, Query: query, Worker: worker,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch)),
	})
}

// search answers q, query i of the run, traced. A PartitionBucketed
// pre-call with the query's radius builds the cache entry the engine
// then hits, so partition cost is timed from outside; the engine's own
// span tree comes through Options.Spans and its work counters through
// CollectStats. The returned latency includes the pre-call, which does
// work the search would otherwise have done.
func (t *tracer) search(ctx context.Context, ds *dataset.Dataset, eng *core.Engine, i int, q *query.Query, algo core.Algorithm, opt core.Options) (*core.Result, time.Duration, error) {
	t0 := time.Now()
	part, err := eng.PartitionIndex().PartitionBucketed(simil.NewContext(ds, q).PartitionRadius())
	t1 := time.Now()
	t.span("bench.partition", i, 0, t0, t1)
	if err != nil {
		return nil, t1.Sub(t0), err
	}
	t.subspaces = append(t.subspaces, float64(len(part.Subspaces)))
	if !t.parts[part] {
		// A partition not seen before was built by this call.
		t.parts[part] = true
		t.buildMS = append(t.buildMS, ms(t1.Sub(t0)))
	}
	// Bounds far above any query's span count, so no span drops.
	st := span.NewTracerLimits(1<<20, 64)
	opt.Spans = st
	opt.CollectStats = true
	res, err := eng.Search(ctx, q, algo, opt)
	t2 := time.Now()
	t.span("bench.search", i, 0, t1, t2)
	if err != nil {
		return nil, t2.Sub(t0), err
	}
	t.fold(res, st.Snapshot(), t2.Sub(t1))
	return res, t2.Sub(t0), nil
}

// fold adds one traced Engine.Search to the layer aggregates.
func (t *tracer) fold(res *core.Result, tr *span.Tree, d time.Duration) {
	t.queries++
	t.searchMS = append(t.searchMS, ms(d))
	t.work = t.work.Add(res.Stats)
	if tr == nil {
		return
	}
	if len(t.trees) < keepTrees {
		t.trees = append(t.trees, tr)
	}
	for name, ns := range selfTimes(tr) {
		t.seen[name] = true
		if layer, ok := spanLayer[name]; ok {
			t.selfNS[layer] += ns
		}
	}
	if share, ok := maxSubspaceShare(tr); ok {
		t.maxSubShare = append(t.maxSubShare, share)
		if sk := tr.Skew(); sk != nil && sk.SpanMS > 0 {
			t.imbalance = append(t.imbalance, sk.ImbalanceRatio)
			t.critShare = append(t.critShare, sk.CriticalPathMS/sk.SpanMS)
		}
	}
}

// layerPresent reports whether any span charged to layer was recorded.
func (t *tracer) layerPresent(layer string) bool {
	for name, l := range spanLayer {
		if l == layer && t.seen[name] {
			return true
		}
	}
	return false
}

// selfMS is a layer's mean self time per traced query.
func (t *tracer) selfMS(layer string) float64 {
	if t.queries == 0 {
		return 0
	}
	return float64(t.selfNS[layer]) / float64(t.queries) / 1e6
}

// selfTimes returns each span name's self time in tr: a span's duration
// minus the part of it its children cover. Children of one span may
// overlap in time (parallel workers), so their union is subtracted,
// not their sum; the self times of parallel units then add up to busy
// time across workers, which can exceed wall time.
func selfTimes(tr *span.Tree) map[string]int64 {
	type iv struct{ s, e int64 }
	kids := make([][]iv, len(tr.Nodes))
	for _, n := range tr.Nodes {
		if n.Parent >= 0 {
			kids[n.Parent] = append(kids[n.Parent], iv{n.StartNS, n.EndNS})
		}
	}
	out := make(map[string]int64)
	for i, n := range tr.Nodes {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		var covered, curS, curE int64
		open := false
		for _, c := range ivs {
			s, e := max(c.s, n.StartNS), min(c.e, n.EndNS)
			if e <= s {
				continue
			}
			if open && s <= curE {
				curE = max(curE, e)
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = s, e, true
		}
		if open {
			covered += curE - curS
		}
		out[n.Name] += n.DurNS() - covered
	}
	return out
}

// maxSubspaceShare is the largest share of the scheduler's unit busy
// time spent on any one subspace; ok is false when the tree holds no
// work-stealing units (a sequential search has no scheduler).
func maxSubspaceShare(tr *span.Tree) (float64, bool) {
	bySub := make(map[int32]int64)
	var total int64
	for _, n := range tr.Nodes {
		if !stealUnits[n.Name] {
			continue
		}
		bySub[n.Subspace] += n.DurNS()
		total += n.DurNS()
	}
	if total == 0 {
		return 0, false
	}
	var top int64
	for _, v := range bySub {
		top = max(top, v)
	}
	return float64(top) / float64(total), true
}

// chromeEvent is one Chrome trace-event ("ph":"X" complete event), the
// format Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write saves the run's spans as a Chrome trace: process 1 holds the
// benchmark's spans (one thread per client worker), process 2+i the
// engine span tree of the i-th kept traced query.
func (t *tracer) write(path string) error {
	var evs []chromeEvent
	for _, s := range t.spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Worker,
			Ts: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			Args: map[string]any{"query": s.Query},
		})
	}
	for i, tr := range t.trees {
		off := float64(tr.StartUnixNS-t.epoch.UnixNano()) / 1e3
		for _, n := range tr.Nodes {
			ev := chromeEvent{
				Name: n.Name, Ph: "X", Pid: 2 + i, Tid: int(max(n.Worker, 0)),
				Ts: off + float64(n.StartNS)/1e3, Dur: float64(n.DurNS()) / 1e3,
			}
			if n.Work != nil {
				ev.Args = map[string]any{"subspace": n.Subspace, "work": n.Work}
			}
			evs = append(evs, ev)
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// engineLayers returns the per-layer metrics the traced engine calls
// yield, and the layers whose spans never appeared. An absent layer
// reports 0 rather than failing the run: the algorithm may not have
// that layer (no LORA spans in an HSP search, no scheduler on the
// sequential path), or its spans may have been renamed.
func (t *tracer) engineLayers(m map[string]metric) (absent []string) {
	q := float64(max(t.queries, 1))
	w := t.work
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	set("core.search_ms", "ms", mean(t.searchMS))
	if len(t.subspaces) == 0 {
		absent = append(absent, "partition")
	}
	set("partition.build_ms", "ms", mean(t.buildMS))
	set("partition.builds", "count", float64(len(t.buildMS)))
	set("partition.subspaces", "count", mean(t.subspaces))
	if !t.layerPresent("simil.prep_ms") {
		absent = append(absent, "simil")
	}
	set("simil.prep_ms", "ms", t.selfMS("simil.prep_ms"))
	set("simil.memo_hit_ratio", "ratio", ratio(w.AttrSimMemoHits, w.AttrSimMemoHits+w.AttrSimMemoMisses))
	hsp := t.layerPresent("hsp.dfs_ms")
	if !hsp {
		absent = append(absent, "hsp")
	}
	for _, name := range []string{"hsp.prep_ms", "hsp.dfs_ms"} {
		set(name, "ms", t.selfMS(name))
	}
	var hc, ht, ho float64
	if hsp {
		hc, ht, ho = float64(w.Candidates)/q, float64(w.Tuples)/q, ratio(w.Offered, w.Tuples)
	}
	set("hsp.candidates_per_query", "count", hc)
	set("hsp.tuples_per_query", "count", ht)
	set("hsp.offered_per_tuple", "ratio", ho)
	lora := t.layerPresent("lora.enum_ms")
	if !lora {
		absent = append(absent, "lora")
	}
	set("lora.sample_ms", "ms", t.selfMS("lora.sample_ms"))
	set("lora.enum_ms", "ms", t.selfMS("lora.enum_ms"))
	var ls, lc, lr float64
	if lora {
		ls, lc, lr = ratio(w.SampledOut, w.Candidates), float64(w.CellTuples)/q, float64(w.RankPops)/q
	}
	set("lora.sampled_out_ratio", "ratio", ls)
	set("lora.cell_tuples_per_query", "count", lc)
	set("lora.rank_pops_per_query", "count", lr)
	if len(t.maxSubShare) == 0 {
		absent = append(absent, "sched")
	}
	set("sched.imbalance_mean", "ratio", mean(t.imbalance))
	set("sched.critical_path_share", "ratio", mean(t.critShare))
	set("sched.max_subspace_load_share", "ratio", mean(t.maxSubShare))
	if !t.layerPresent("topk.merge_ms") {
		absent = append(absent, "topk")
	}
	set("topk.merge_ms", "ms", t.selfMS("topk.merge_ms"))
	set("topk.offered_per_query", "count", float64(w.Offered)/q)
	return absent
}
