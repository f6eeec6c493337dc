// Package hsp implements the paper's exact algorithm HSP (Hierarchical
// Space Partitioning, Section III-B).
//
// HSP partitions the data space into core subspaces whose diagonal is
// below beta*||V_t*|| and searches each core's ac-subspace independently.
// Inside a subspace it runs Exact-DFS (Algorithm 1) with three refinements
// over DFS-Prune:
//
//  1. first-point-in-core selection (Lemma 1: every candidate tuple is
//     enumerated exactly once across all subspaces);
//  2. the refined attribute bound of Eq. 6 (unseen dimensions bounded by
//     the subspace's per-dimension maxima instead of 1);
//  3. the refined spatial bound of Eq. 9 combined with Eq. 5 (tighter
//     wins), plus unconditional pruning of prefixes whose partial distance
//     norm already exceeds beta*||V_t*||.
package hsp

import (
	"context"
	"math"
	"runtime"

	"spatialseq/internal/algo/bound"
	"spatialseq/internal/algo/sched"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/topk"
)

// hspMinChunk floors the auto-sized steal chunks: below ~16 root
// candidates per unit the scheduler round-trip costs more than the DFS
// subtree it hands out.
const hspMinChunk = 16

// Options tune implementation details; the zero value is the paper's HSP.
type Options struct {
	// DisablePartition searches the whole space as one subspace (for the
	// A1 ablation benchmark isolating the partitioning gain).
	DisablePartition bool
	// LooseBounds falls back to DFS-Prune's bounds inside the subspace
	// search (A4 ablation isolating the refined-bound gain).
	LooseBounds bool
	// SortedBreak is an extension beyond the paper: because candidates
	// are sorted descending by attribute similarity and the attribute
	// bound is monotone along that order, a failing attribute-only bound
	// implies every later candidate fails too, so the whole level can be
	// abandoned instead of just the subtree. Off by default for fidelity
	// to Algorithm 1 (ablation A5 measures the gain).
	SortedBreak bool
	// Parallelism spreads the search over this many goroutines sharing
	// one concurrent top-k (exactness is unaffected: a stale pruning
	// threshold only admits extra candidates, and the tie-break is
	// order-independent). The unit of parallel work is smaller than a
	// subspace: prepared subspaces are split into dim-0 candidate chunks
	// workers steal from a shared scheduler, so one fat subspace no
	// longer caps speedup. Subspaces are prepared in bound order (see
	// package bound). <= 1 searches on the caller's goroutine, subspace
	// by subspace in bound order; negative uses GOMAXPROCS.
	Parallelism int
	// Steal tunes the work-unit scheduler (chunk sizing of the stolen
	// dim-0 ranges). The zero value auto-sizes.
	Steal sched.Tuning
	// Own, when non-nil, restricts the search to the subspaces whose core
	// rectangle it claims. The sharded serving tier hands each shard a
	// disjoint claim over the subspace cores: Lemma 1 enumerates every
	// candidate tuple in exactly one core subspace, so the union of the
	// shards' filtered searches equals the unfiltered search. Must be
	// pure (same answer for the same rectangle within one call).
	Own func(core geo.Rect) bool
	// Sink, when non-nil, replaces the internally allocated top-k
	// collector. It must be safe for concurrent use when Parallelism > 1.
	// The sharded tier injects a sink that couples the shard-local top-k
	// to the cross-shard pruning-threshold exchange.
	Sink topk.ResultSink
	// Stats, when non-nil, collects per-search counters (subspaces,
	// candidates, pruned prefixes, scored tuples).
	Stats *stats.Stats
	// Span, when live, is the parent span the search nests its
	// hierarchical timeline under: one "hsp.prep" / "hsp.chunk" unit
	// span per work unit, each tagged with both its worker lane and
	// owning subspace and carrying that unit's work-counter delta. With
	// one worker each searched subspace is one prep and one chunk on
	// lane 0. The zero Span disables span tracing at no cost.
	Span span.Span
}

// Search answers q exactly using the prebuilt partition index ix (which
// must index exactly the locations of ds, in dataset position order).
func Search(ctx context.Context, ds *dataset.Dataset, ix *partition.Index, q *query.Query, opt Options) ([]topk.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sctx := simil.NewContext(ds, q)
	radius := sctx.PartitionRadius()
	if opt.DisablePartition {
		// Ablation flag: one subspace covering everything stays exact.
		radius = math.Inf(1)
	}
	psp := opt.Span.Child("hsp.partition")
	part, err := ix.PartitionBucketed(radius)
	psp.End()
	if err != nil {
		return nil, err
	}

	work := bound.Work(sctx, part, opt.Own)

	workers := opt.Parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Workers are deliberately not capped at len(work): chunked stealing
	// lets several workers share one subspace's DFS root level, so even a
	// single-subspace query (DisablePartition, or a pinned dim 0)
	// parallelizes.
	// With more than one subspace the overlapping ac-regions revisit the
	// same (dimension, object) pairs: memoize the attribute cosines in
	// one read-only pass that also bounds and orders the subspaces. A
	// single subspace has no reuse to win and nothing to order.
	plan := bound.Plan{Work: work}
	if len(work) > 1 {
		ssp := opt.Span.Child("hsp.simprep")
		plan, err = bound.Order(ctx, sctx, part, work)
		ssp.End()
		if err != nil {
			return nil, err
		}
		opt.Stats.AddSnapshot(stats.Snapshot{AttrSimMemoMisses: plan.Computed})
	}
	sink := opt.Sink
	if sink == nil {
		if workers > 1 {
			sink = topk.NewConcurrent(q.Params.K)
		} else {
			sink = topk.New(q.Params.K)
		}
	}
	err = sched.Run(len(plan.Work), workers, hspMinChunk, opt.Steal, func(w int) sched.Worker[prepState] {
		return &searcher{
			ctx:         ctx,
			sctx:        sctx,
			q:           q,
			plan:        &plan,
			lane:        w,
			heap:        sink,
			tuple:       make([]int32, sctx.M),
			scratch:     sctx.NewScratch(),
			loose:       opt.LooseBounds,
			sortedBreak: opt.SortedBreak,
			st:          opt.Stats,
			span:        opt.Span,
		}
	})
	if err != nil {
		return nil, err
	}
	msp := opt.Span.Child("topk.merge")
	res := sink.Results()
	msp.End()
	return res, nil
}

// Prep prepares one subspace — exactly once per subspace, keeping the
// Lemma-1 discipline — and returns its dim-0 candidate count. A
// subspace whose bound cannot beat the running k-th result is pruned
// unprepared and opens no span. The prep span carries the
// subspace-level work delta (candidate volume, skip marks, memo hits);
// enumeration counters land on the chunk spans.
func (s *searcher) Prep(p *prepState, sub int) (int, error) {
	verdict := s.plan.Check(sub, s.heap)
	if verdict == bound.Prune {
		s.st.AddSnapshot(stats.Snapshot{SubspacesPruned: 1})
		return 0, nil
	}
	sp := s.span.Unit("hsp.prep", s.lane, sub)
	if verdict == bound.Skip || s.prepareInto(p, s.plan.Work[sub]) {
		s.unit.SubspacesSkipped = 1
		s.flush(sp)
		return 0, nil
	}
	s.unit.Subspaces = 1
	s.unit.SubspaceCandidatesMax = s.unit.Candidates
	s.flush(sp)
	return len(p.cands[0]), nil
}

// Chunk runs Exact-DFS over the dim-0 candidate range [lo, hi) of an
// already-prepared subspace. The chunk span carries the enumeration
// work delta, attributed to the owning subspace, so Tree.Skew keeps
// measuring per-lane busy time and the straggler attribution keeps
// naming the heaviest subspace.
func (s *searcher) Chunk(p *prepState, sub, lo, hi int) error {
	sp := s.span.Unit("hsp.chunk", s.lane, sub)
	s.attach(p)
	err := s.dfs(0, 0, lo, hi)
	s.flush(sp)
	return err
}

// flush publishes the unit's counter batch to the query totals and to
// its span, then starts a fresh batch.
func (s *searcher) flush(sp span.Span) {
	s.st.AddSnapshot(s.unit)
	sp.EndWork(s.unit)
	s.unit = stats.Snapshot{}
}

// prepState is one subspace's prepared search state: the per-dimension
// candidate lists and Eq. 6 suffix maxima. sched.Run pools prep states,
// hands them from the preparing worker to chunk workers (read-only
// during enumeration), and recycles them when the subspace's last chunk
// finishes.
type prepState struct {
	cands      [][]simil.Cand
	rbarSuffix []float64
}

type searcher struct {
	ctx         context.Context
	sctx        *simil.Context
	q           *query.Query
	plan        *bound.Plan
	lane        int
	heap        topk.Sink
	tuple       []int32
	scratch     *simil.Scratch
	gather      partition.Points
	simBuf      []float64
	loose       bool
	sortedBreak bool

	// cands/rbarSuffix are views of the prep state attached for the
	// current DFS.
	cands      [][]simil.Cand
	rbarSuffix []float64
	steps      int
	st         *stats.Stats
	span       span.Span
	// unit batches the current unit's counters so the DFS hot loop
	// touches plain ints, not atomics.
	unit stats.Snapshot
}

// attach points the DFS at a prepared subspace's candidate lists and
// resets the prefix scratch.
func (s *searcher) attach(p *prepState) {
	s.cands = p.cands
	s.rbarSuffix = p.rbarSuffix
	s.scratch.Reset()
}

// prepareInto builds the per-subspace candidate lists and Eq. 6 suffix
// maxima into p, counting the candidate volume into the unit batch. It
// reports skip=true when some dimension has no candidate (the subspace
// cannot produce a tuple) or a pinned object falls outside the
// ac-subspace.
func (s *searcher) prepareInto(p *prepState, ss *partition.Subspace) (skip bool) {
	c := s.sctx
	m := c.M
	if p.cands == nil {
		p.cands = make([][]simil.Cand, m)
		p.rbarSuffix = make([]float64, m+1)
	}
	for d := 0; d < m; d++ {
		if fixed := s.q.Example.FixedDim(d); fixed >= 0 {
			loc := c.DS.Loc(int(fixed))
			region := ss.AC
			if d == 0 {
				region = ss.Core
			}
			if !region.Contains(loc) {
				return true
			}
			p.cands[d] = append(p.cands[d][:0], simil.Cand{Pos: fixed, Sim: c.AttrSim(d, fixed)})
			if c.Memoized() {
				s.unit.AttrSimMemoHits++
			}
			continue
		}
		// Dimension 0 draws from the core's run of the category (Lemma
		// 1), later dimensions from the whole ac-subspace. Both sources
		// hold only the category, so they are scored as they are.
		cat := c.Ex.Categories[d]
		var source []int32
		if d == 0 {
			source = ss.CoreRun(cat).Pos
		} else {
			s.gather.Reset()
			ss.GatherAC(cat, &s.gather)
			source = s.gather.Pos
		}
		n := len(source)
		if n == 0 {
			return true
		}
		if cap(s.simBuf) < n {
			s.simBuf = make([]float64, n)
		}
		sims := s.simBuf[:n]
		c.AttrSimBatch(d, source, sims)
		if c.Memoized() {
			s.unit.AttrSimMemoHits += int64(n)
		}
		cands := p.cands[d][:0]
		for i, pos := range source {
			cands = append(cands, simil.Cand{Pos: pos, Sim: sims[i]})
		}
		simil.SortCandidates(cands)
		p.cands[d] = cands
	}
	p.rbarSuffix[m] = 0
	for d := m - 1; d >= 0; d-- {
		p.rbarSuffix[d] = p.rbarSuffix[d+1] + p.cands[d][0].Sim
	}
	for d := 0; d < m; d++ {
		s.unit.Candidates += int64(len(p.cands[d]))
	}
	return false
}

const checkEvery = 4096

// dfs is Exact-DFS (Algorithm 1) over the current subspace's
// candidates, restricted at this level to the index range [lo, hi) —
// the stealing path hands different dim-0 ranges of one subspace to
// different workers; recursion always descends over the next
// dimension's full list.
//
//seq:hotpath
func (s *searcher) dfs(dim int, attrSum float64, lo, hi int) error {
	c := s.sctx
	for _, cand := range s.cands[dim][lo:hi] {
		if s.steps++; s.steps%checkEvery == 0 {
			select {
			case <-s.ctx.Done():
				return s.ctx.Err()
			default:
			}
		}
		if s.used(cand.Pos, dim) {
			continue
		}
		sum := attrSum + cand.Sim
		var attrBound float64
		if s.loose {
			attrBound = c.AttrBoundLoose(sum, dim+1)
		} else {
			attrBound = c.AttrBoundRefined(sum, dim+1, s.rbarSuffix)
		}
		if !s.heap.WouldAccept(c.Combine(1, attrBound)) {
			s.unit.PrunedPrefixes++
			if s.sortedBreak {
				// extension: the bound is monotone along the
				// similarity-sorted list, so later candidates fail too
				break
			}
			continue
		}
		s.tuple[dim] = cand.Pos
		added := s.scratch.Push(c.DS.Loc(int(cand.Pos)), cand.Sim)
		if dim+1 == c.M {
			s.unit.Tuples++
			if c.NormOK(s.scratch.PrefixNorm()) {
				if s.heap.Offer(s.tuple, c.TupleSim(s.scratch.Y, s.scratch.AttrSims)) {
					s.unit.Offered++
				}
			}
		} else {
			var spatialBound float64
			if s.loose {
				spatialBound = c.SpatialBoundEq5(s.scratch.Y)
			} else {
				spatialBound = c.SpatialBound(s.scratch.Y)
			}
			if !math.IsInf(spatialBound, -1) &&
				s.heap.WouldAccept(c.Combine(spatialBound, attrBound)) {
				if err := s.dfs(dim+1, sum, 0, len(s.cands[dim+1])); err != nil {
					return err
				}
			} else {
				s.unit.PrunedPrefixes++
			}
		}
		s.scratch.Pop(added)
	}
	return nil
}

func (s *searcher) used(pos int32, dim int) bool {
	for d := 0; d < dim; d++ {
		if s.tuple[d] == pos {
			return true
		}
	}
	return false
}
