// Package lora implements LORA (LOcal Representative Approximation), the
// paper's approximate algorithm (Section III-C/D).
//
// Per ac-subspace, LORA imposes a D x D grid, groups same-category points
// per cell, keeps only the top-xi points of each (cell, dimension) bucket
// by attribute similarity to the example (query-dependent sampling,
// Algorithm 6), and then enumerates in two phases:
//
//   - Cell-Tuple-Enum (Algorithm 4): DFS over per-dimension cell lists
//     sorted by maximum bucket similarity, pruning cell tuples whose
//     upper bound alpha*1 + (1-alpha)*Vbar cannot beat the current k-th
//     result;
//   - Point-Tuple-Enum (Algorithm 5): best-first traversal of the
//     rank-representation graph, popping the cell tuple's point tuples in
//     descending attribute-similarity order (Lemma 2), applying the
//     beta-norm check, scoring survivors against the global top-k and
//     stopping once no future pop can help or k valid tuples were popped
//     (per-subspace top-k sufficiency, observation 2).
//
// Like HSP, dimension-0 candidates are restricted to the core subspace so
// no tuple is generated twice across subspaces.
package lora

import (
	"context"
	"math"
	"runtime"
	"slices"

	"spatialseq/internal/algo/bound"
	"spatialseq/internal/algo/sched"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/grid"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/rankgraph"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/topk"
)

// loraMinChunk floors the auto-sized steal chunks at one root cell: a
// root cell already carries a whole cell-tuple subtree.
const loraMinChunk = 1

// Options tune implementation details; the zero value is the paper's LORA.
type Options struct {
	// RandomSample replaces query-dependent sampling with seeded random
	// sampling (the strawman of Fig. 4, for the A2 ablation): each bucket
	// keeps the xi candidates with the largest seeded hash of
	// (dimension, cell, position), whatever order they arrive in.
	RandomSample bool
	// RandomSeed drives RandomSample.
	RandomSeed int64
	// PruneCellNorm enables the cell-level beta-norm feasibility filter
	// using min/max inter-cell distances (A3 ablation; off in the
	// paper's plain LORA).
	PruneCellNorm bool
	// SortedBreak is an extension beyond the paper: cell lists are sorted
	// descending by score and the Algorithm 4 bound is monotone along
	// that order, so a failing bound can abandon the whole level instead
	// of just the subtree. Off by default for fidelity (ablation A5).
	SortedBreak bool
	// Parallelism spreads the search over this many goroutines sharing
	// one concurrent top-k. A stale pruning threshold only admits extra
	// candidates, so parallel LORA's results are never worse than
	// sequential LORA's — but the exact result set can vary between
	// runs. The unit of parallel work is smaller than a subspace:
	// prepared subspaces are split into chunks of their root cell list
	// that workers steal from a shared scheduler. Subspaces are prepared
	// in bound order (see package bound). <= 1 searches on the caller's
	// goroutine, subspace by subspace in bound order; negative uses
	// GOMAXPROCS.
	Parallelism int
	// Steal tunes the work-unit scheduler (chunk sizing of the stolen
	// root-cell ranges). The zero value auto-sizes.
	Steal sched.Tuning
	// Own, when non-nil, restricts the search to the subspaces whose core
	// rectangle it claims; see hsp.Options.Own. Lemma 1's exactly-once
	// discipline makes the union over a disjoint claim set equal the
	// unfiltered search (up to LORA's usual sampling approximation).
	Own func(core geo.Rect) bool
	// Sink, when non-nil, replaces the internally allocated top-k
	// collector. It must be safe for concurrent use when Parallelism > 1.
	Sink topk.ResultSink
	// Stats, when non-nil, collects per-search counters (subspaces,
	// cell tuples, rank-graph pops, sampling discards).
	Stats *stats.Stats
	// Span, when live, is the parent span the search nests its
	// hierarchical timeline under: one "lora.prep" / "lora.chunk" unit
	// span per work unit, each tagged with both its worker lane and
	// owning subspace and carrying that unit's work-counter delta. With
	// one worker each searched subspace is one prep and one chunk on
	// lane 0. The zero Span disables span tracing at no cost.
	Span span.Span
}

// Search answers q approximately using the prebuilt partition index ix.
func Search(ctx context.Context, ds *dataset.Dataset, ix *partition.Index, q *query.Query, opt Options) ([]topk.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sctx := simil.NewContext(ds, q)
	radius := sctx.PartitionRadius()
	psp := opt.Span.Child("lora.partition")
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
	// lets several workers share one subspace's root cell list.
	// Overlapping ac-subspaces re-bucket the same (dimension, object)
	// pairs: memoize the attribute cosines in one read-only pass that
	// also bounds and orders the subspaces. One subspace means no reuse
	// and nothing to order, so skip the pass.
	plan := bound.Plan{Work: work}
	if len(work) > 1 {
		ssp := opt.Span.Child("lora.simprep")
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
	err = sched.Run(len(plan.Work), workers, loraMinChunk, opt.Steal, func(w int) sched.Worker[prepState] {
		return &searcher{
			ctx:   ctx,
			sctx:  sctx,
			heap:  sink,
			q:     q,
			opt:   opt,
			plan:  &plan,
			lane:  w,
			tuple: make([]int32, sctx.M),
			asims: make([]float64, sctx.M),
			dist:  make([]float64, 0, sctx.Pairs),
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

// Prep buckets and samples one subspace — exactly once per subspace —
// and returns the length of its root cell list. A subspace whose bound
// cannot beat the running k-th result is pruned unprepared and opens no
// span. The prep span carries the subspace-level work delta (candidate
// volume, sampling discards, skip marks, memo hits); enumeration
// counters land on the chunk spans.
func (s *searcher) Prep(p *prepState, sub int) (int, error) {
	verdict := s.plan.Check(sub, s.heap)
	if verdict == bound.Prune {
		s.opt.Stats.AddSnapshot(stats.Snapshot{SubspacesPruned: 1})
		return 0, nil
	}
	sp := s.opt.Span.Unit("lora.prep", s.lane, sub)
	skip := verdict == bound.Skip
	var err error
	if !skip {
		skip, err = s.prepareInto(p, s.plan.Work[sub])
	}
	if err != nil {
		sp.End()
		return 0, err
	}
	s.unit.SubspaceCandidatesMax = s.unit.Candidates
	if skip {
		s.unit.SubspacesSkipped = 1
		s.flush(sp)
		return 0, nil
	}
	s.unit.Subspaces = 1
	s.flush(sp)
	return len(p.cellLists[0]), nil
}

// Chunk enumerates the root cell range [lo, hi) of an already-prepared
// subspace. The chunk span carries the enumeration work delta,
// attributed to the owning subspace, so Tree.Skew keeps measuring
// per-lane busy time and the straggler attribution keeps naming the
// heaviest subspace.
func (s *searcher) Chunk(p *prepState, sub, lo, hi int) error {
	sp := s.opt.Span.Unit("lora.chunk", s.lane, sub)
	s.attach(p)
	err := s.cellDFS(0, 0, lo, hi)
	s.flush(sp)
	return err
}

// flush publishes the unit's counter batch to the query totals and to
// its span, then starts a fresh batch.
func (s *searcher) flush(sp span.Span) {
	s.opt.Stats.AddSnapshot(s.unit)
	sp.EndWork(s.unit)
	s.unit = stats.Snapshot{}
}

// prepState is one subspace's prepared search state: the grid, the
// sampled (dimension, cell) buckets and the sorted cell lists with
// their Eq.-style suffix maxima. sched.Run pools prep states, hands
// them from the preparing worker to chunk workers (read-only during
// enumeration — grid MinDist/MaxDist are pure), and recycles them when
// the subspace's last chunk finishes.
type prepState struct {
	g          *grid.Grid
	buckets    [][][]simil.Cand // [dim][cell] sampled candidates, sorted desc
	cellLists  [][]scoredCell   // [dim] non-empty cells sorted by score desc
	rbarSuffix []float64
}

type searcher struct {
	ctx  context.Context
	sctx *simil.Context
	heap topk.Sink
	q    *query.Query
	opt  Options
	plan *bound.Plan
	lane int
	// unit batches the current unit's counters so hot loops touch
	// plain ints, not atomics.
	unit  stats.Snapshot
	steps int

	// g/buckets/cellLists/rbarSuffix are views of the prep state
	// attached for the current enumeration.
	g          *grid.Grid
	buckets    [][][]simil.Cand
	cellLists  [][]scoredCell
	rbarSuffix []float64

	// bucketing scratch: the gathered ac-subspace candidates, their
	// blocked attribute sims and the per-cell selection heaps
	gather partition.Points
	simBuf []float64
	heaps  [][]ranked

	// enumeration scratch (per-searcher, reused across cell tuples)
	cellTuple  []int
	simScratch [][]float64
	listsBuf   [][]simil.Cand
	enum       *rankgraph.Enumerator

	// tuple assembly scratch
	tuple []int32
	asims []float64
	dist  []float64
}

// attach points the enumeration at a prepared subspace's state and
// lazily sizes the per-searcher enumeration scratch.
func (s *searcher) attach(p *prepState) {
	s.g = p.g
	s.buckets = p.buckets
	s.cellLists = p.cellLists
	s.rbarSuffix = p.rbarSuffix
	if s.cellTuple == nil {
		m := s.sctx.M
		s.cellTuple = make([]int, m)
		s.simScratch = make([][]float64, m)
	}
}

type scoredCell struct {
	cell  int
	score float64
}

// sortScoredCells orders cells by score descending, index ascending.
func sortScoredCells(cs []scoredCell) {
	slices.SortFunc(cs, func(a, b scoredCell) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		default:
			return a.cell - b.cell
		}
	})
}

const checkEvery = 1024

func (s *searcher) checkCancel() error {
	if s.steps++; s.steps%checkEvery == 0 {
		select {
		case <-s.ctx.Done():
			return s.ctx.Err()
		default:
		}
	}
	return nil
}

// prepareInto buckets candidates per (dimension, cell), Point-Samples
// each bucket, and builds the sorted cell lists and suffix maxima into
// p. It reports skip=true when a pinned object falls outside the
// subspace or some dimension has no candidate cell. Candidate and
// sampling counters accumulate into the unit batch.
func (s *searcher) prepareInto(p *prepState, ss *partition.Subspace) (skip bool, err error) {
	c := s.sctx
	m := c.M
	g, err := grid.New(ss.AC, s.q.Params.GridD)
	if err != nil {
		return false, err
	}
	p.g = g
	nc := g.NumCells()
	if p.buckets == nil {
		p.buckets = make([][][]simil.Cand, m)
		p.cellLists = make([][]scoredCell, m)
		p.rbarSuffix = make([]float64, m+1)
	}
	if len(s.heaps) < nc {
		s.heaps = append(s.heaps, make([][]ranked, nc-len(s.heaps))...)
	}
	for d := 0; d < m; d++ {
		if p.buckets[d] == nil || len(p.buckets[d]) < nc {
			p.buckets[d] = make([][]simil.Cand, nc)
		}
		for i := 0; i < nc; i++ {
			p.buckets[d][i] = p.buckets[d][i][:0]
		}
		p.cellLists[d] = p.cellLists[d][:0]
	}

	for d := 0; d < m; d++ {
		if fixed := s.q.Example.FixedDim(d); fixed >= 0 {
			loc := c.DS.Loc(int(fixed))
			region := ss.AC
			if d == 0 {
				region = ss.Core
			}
			if !region.Contains(loc) {
				return true, nil // subspace cannot host the pinned object
			}
			cell := g.Cell(loc)
			if c.Memoized() {
				s.unit.AttrSimMemoHits++
			}
			p.buckets[d][cell] = append(p.buckets[d][cell], simil.Cand{Pos: fixed, Sim: c.AttrSim(d, fixed)})
			p.cellLists[d] = append(p.cellLists[d], scoredCell{cell: cell, score: p.buckets[d][cell][0].Sim})
			continue
		}
		// Gather the category's candidates with their coordinates
		// inline: dimension 0 from the core's run (Lemma 1), later
		// dimensions from the whole ac-subspace. Score them with one
		// AttrSimBatch sweep, then stream them into their buckets.
		cat := c.Ex.Categories[d]
		var pts partition.Points
		if d == 0 {
			pts = ss.CoreRun(cat)
		} else {
			s.gather.Reset()
			ss.GatherAC(cat, &s.gather)
			pts = s.gather
		}
		n := pts.Len()
		s.unit.Candidates += int64(n)
		if c.Memoized() {
			s.unit.AttrSimMemoHits += int64(n)
		}
		if cap(s.simBuf) < n {
			s.simBuf = make([]float64, n)
		}
		sims := s.simBuf[:n]
		c.AttrSimBatch(d, pts.Pos, sims)
		s.sample(p.buckets[d], g, d, &pts, sims)
		kept := 0
		for cell := 0; cell < nc; cell++ {
			b := p.buckets[d][cell]
			if len(b) == 0 {
				continue
			}
			kept += len(b)
			simil.SortCandidates(b)
			p.cellLists[d] = append(p.cellLists[d], scoredCell{cell: cell, score: b[0].Sim})
		}
		s.unit.SampledOut += int64(n - kept)
		if len(p.cellLists[d]) == 0 {
			return true, nil // no candidates for this dimension here
		}
	}
	for d := 0; d < m; d++ {
		sortScoredCells(p.cellLists[d])
	}
	p.rbarSuffix[m] = 0
	for d := m - 1; d >= 0; d-- {
		p.rbarSuffix[d] = p.rbarSuffix[d+1] + p.cellLists[d][0].score
	}
	return false, nil
}

// ranked is one candidate in a bucket's bounded selection heap: its
// sampling key (the similarity, or under RandomSample a seeded hash),
// its position, and its index into the gathered candidates.
type ranked struct {
	key float64
	pos int32
	i   int32
}

// ahead reports whether a is kept before b: key descending, ties by
// position ascending — a total order on a bucket's distinct positions.
func (a ranked) ahead(b ranked) bool {
	return a.key > b.key || (a.key >= b.key && a.pos < b.pos)
}

// sample streams scored candidates into their (dimension, cell) buckets
// under Point-Sample (Algorithm 6). Each cell keeps only its best xi
// candidates in a bounded heap whose root is the worst one kept, so no
// bucket is ever fully sorted; the kept set equals sorting the whole
// bucket and truncating it to xi, whatever order candidates arrive in.
// xi <= 0 keeps every candidate. Callers sort each bucket afterwards.
//
//seq:hotpath
func (s *searcher) sample(buckets [][]simil.Cand, g *grid.Grid, dim int, pts *partition.Points, sims []float64) {
	xi := s.q.Params.Xi
	heaps := s.heaps[:len(buckets)]
	for i, pos := range pts.Pos {
		cell := g.Cell(pts.Loc(i))
		e := ranked{key: sims[i], pos: pos, i: int32(i)}
		if s.opt.RandomSample {
			e.key = s.sampleKey(dim, cell, pos)
		}
		h := heaps[cell]
		switch {
		case xi <= 0:
			//lint:ignore hotpathalloc appends into the searcher's reused heap storage
			h = append(h, e)
		case len(h) < xi:
			//lint:ignore hotpathalloc appends into the searcher's reused heap storage; a heap holds at most xi
			h = append(h, e)
			siftUp(h)
		case e.ahead(h[0]):
			h[0] = e
			siftDown(h)
		}
		heaps[cell] = h
	}
	for cell, h := range heaps {
		for _, e := range h {
			//lint:ignore hotpathalloc appends into the prep state's reused bucket storage
			buckets[cell] = append(buckets[cell], simil.Cand{Pos: e.pos, Sim: sims[e.i]})
		}
		heaps[cell] = h[:0]
	}
}

// siftUp restores the worst-at-root heap order after an append.
//
//seq:hotpath
func siftUp(h []ranked) {
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[parent].ahead(h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the worst-at-root heap order after the root was
// replaced.
//
//seq:hotpath
func siftDown(h []ranked) {
	for i := 0; ; {
		worst := 2*i + 1
		if worst >= len(h) {
			return
		}
		if r := worst + 1; r < len(h) && h[worst].ahead(h[r]) {
			worst = r
		}
		if !h[i].ahead(h[worst]) {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// sampleKey is RandomSample's seeded pseudo-random key of a candidate:
// the splitmix64 finalizer over seed, dimension, cell and position,
// truncated to the 53 bits a float64 holds exactly.
func (s *searcher) sampleKey(dim, cell int, pos int32) float64 {
	z := uint64(s.opt.RandomSeed) ^ uint64(dim)<<48 ^ uint64(cell)<<32 ^ uint64(uint32(pos))
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return float64((z ^ (z >> 31)) >> 11)
}

// cellDFS is Cell-Tuple-Enum (Algorithm 4), restricted at this level to
// the cell-list index range [lo, hi) — the stealing path hands
// different root ranges of one subspace to different workers; recursion
// always descends over the next dimension's full list.
//
//seq:hotpath
func (s *searcher) cellDFS(dim int, scoreSum float64, lo, hi int) error {
	c := s.sctx
	for _, sc := range s.cellLists[dim][lo:hi] {
		if err := s.checkCancel(); err != nil {
			return err
		}
		sum := scoreSum + sc.score
		// Algorithm 4: spatial similarity is bounded by 1 at the cell
		// level; a failing bound prunes the cell's subtree.
		vbar := (sum + s.rbarSuffix[dim+1]) / float64(c.M)
		if !s.heap.WouldAccept(c.Combine(1, vbar)) {
			s.unit.PrunedCellPrefixes++
			if s.opt.SortedBreak {
				// extension: monotone along the score-sorted cell list
				break
			}
			continue
		}
		s.cellTuple[dim] = sc.cell
		if s.opt.PruneCellNorm && !s.cellPrefixFeasible(dim) {
			continue
		}
		if dim+1 == c.M {
			if err := s.pointEnum(); err != nil {
				return err
			}
		} else {
			if err := s.cellDFS(dim+1, sum, 0, len(s.cellLists[dim+1])); err != nil {
				return err
			}
		}
	}
	return nil
}

// cellPrefixFeasible checks the optional beta-norm feasibility of the cell
// prefix ending at dim: if even the minimal pairwise distances already
// exceed beta*||V_t*||, or (at full depth) the maximal distances cannot
// reach ||V_t*||/beta, no point tuple inside can satisfy the constraint.
//
//seq:hotpath
func (s *searcher) cellPrefixFeasible(dim int) bool {
	c := s.sctx
	if math.IsInf(c.Beta, 1) {
		return true
	}
	if c.Metric != nil && !c.Metric.DominatesEuclidean() {
		// Euclidean cell gaps do not lower-bound such a metric.
		return true
	}
	limit := c.Beta * c.Norm
	var minSq float64
	for i := 0; i <= dim; i++ {
		for j := 0; j < i; j++ {
			if c.Active != nil && !c.Active[geo.PairIndex(j, i)] {
				continue
			}
			d := s.g.MinDist(s.cellTuple[i], s.cellTuple[j])
			minSq += d * d
		}
	}
	if minSq > limit*limit {
		return false
	}
	if dim+1 == c.M && c.Norm > 0 && c.Metric == nil {
		// the max-side check needs an upper bound on distances, which
		// Euclidean cell geometry only provides for the Euclidean metric
		var maxSq float64
		for i := 0; i <= dim; i++ {
			for j := 0; j < i; j++ {
				if c.Active != nil && !c.Active[geo.PairIndex(j, i)] {
					continue
				}
				d := s.g.MaxDist(s.cellTuple[i], s.cellTuple[j])
				maxSq += d * d
			}
		}
		lower := c.Norm / c.Beta
		if maxSq < lower*lower {
			return false
		}
	}
	return true
}

// pointEnum is Point-Tuple-Enum (Algorithm 5) for the current cell tuple.
//
//seq:hotpath
func (s *searcher) pointEnum() error {
	c := s.sctx
	m := c.M
	s.unit.CellTuples++
	if s.listsBuf == nil {
		//lint:ignore hotpathalloc grow-once per-searcher buffer; reused across every cell tuple
		s.listsBuf = make([][]simil.Cand, m)
	}
	lists := s.listsBuf
	for d := 0; d < m; d++ {
		lists[d] = s.buckets[d][s.cellTuple[d]]
		if len(lists[d]) == 0 {
			return nil
		}
		sims := s.simScratch[d][:0]
		for _, cd := range lists[d] {
			//lint:ignore hotpathalloc appends into the reused simScratch buffer; capacity is amortised across cell tuples
			sims = append(sims, cd.Sim)
		}
		s.simScratch[d] = sims
	}
	// Fast path: a cell tuple with exactly one combination (common in
	// sparse regions) needs no rank-graph machinery.
	single := m <= len(singleRanks)
	for d := 0; single && d < m; d++ {
		if len(lists[d]) != 1 {
			single = false
		}
	}
	if single {
		var total float64
		for d := 0; d < m; d++ {
			total += lists[d][0].Sim
		}
		if s.heap.WouldAccept(c.Combine(1, total/float64(m))) {
			s.assembleTuple(lists, singleRanks[:m])
		}
		return nil
	}

	if s.enum == nil {
		s.enum = rankgraph.New(s.simScratch[:m])
	} else {
		s.enum.Reset(s.simScratch[:m])
	}
	en := s.enum
	validPops := 0
	k := s.heap.K()
	for {
		if err := s.checkCancel(); err != nil {
			return err
		}
		ranks, total, ok := en.Next()
		if !ok {
			return nil
		}
		s.unit.RankPops++
		attrMean := total / float64(m)
		// Future pops have lower attribute totals; once even a perfect
		// spatial similarity cannot beat the k-th result, stop.
		if !s.heap.WouldAccept(c.Combine(1, attrMean)) {
			return nil
		}
		if s.assembleTuple(lists, ranks) {
			validPops++
			if validPops >= k {
				// Observation 2: the per-subspace (here per cell tuple)
				// top-k by attribute similarity suffices.
				return nil
			}
		}
	}
}

// assembleTuple materialises the popped rank vector, applies the duplicate
// and beta-norm checks, and offers the tuple to the global top-k. It
// reports whether the tuple was valid (passed the checks).
//
//seq:hotpath
func (s *searcher) assembleTuple(lists [][]simil.Cand, ranks []int32) bool {
	c := s.sctx
	m := c.M
	for d := 0; d < m; d++ {
		cd := lists[d][ranks[d]]
		s.tuple[d] = cd.Pos
		s.asims[d] = cd.Sim
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if s.tuple[i] == s.tuple[j] {
				return false
			}
		}
	}
	s.unit.Tuples++
	s.dist = c.DistVectorOfPositions(s.tuple, s.dist)
	if !c.NormOK(geo.Norm(s.dist)) {
		return false
	}
	if s.heap.Offer(s.tuple, c.TupleSim(s.dist, s.asims)) {
		s.unit.Offered++
	}
	return true
}

// singleRanks is the all-zero rank vector reused by the singleton fast
// path (the maximum tuple size is small; 16 is far beyond any practical m).
var singleRanks [16]int32
