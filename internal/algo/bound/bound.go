// Package bound is the step HSP and LORA share between partitioning and
// the work scheduler: it bounds, orders and gates a query's work
// subspaces before any of them is prepared.
//
// The cell-level bound of Algorithm 4, alpha*1 + (1-alpha)*Vbar, lifts to
// a whole ac-subspace. A tuple enumerated there takes its dimension-0
// object from the subspace's core and every later object from a core
// that meets its AC (the cores GatherAC reads), so its mean attribute
// similarity is at most the mean, over dimensions, of the best similarity
// in those cores' runs of the dimension's category; its spatial
// similarity is at most 1. One pass walks each referenced core's category
// run once per example dimension, fills the attribute-similarity memo
// from that walk and records each run's maximum; every work subspace's
// bound follows from those maxima. The work is then ordered by bound,
// descending, ties by partition order, and a subspace whose bound cannot
// beat the running k-th result is never gathered, scored or bucketed.
//
// Exactness: the bound is never below the root bound a subspace's prep
// computes — HSP's Eq. 6 suffix and LORA's cell-score suffix both sum
// the maxima of subsets of the same runs, in the same order — and the
// pruning threshold only rises. A pruned subspace therefore could never
// have contributed a result.
package bound

import (
	"context"
	"math"
	"sort"

	"spatialseq/internal/geo"
	"spatialseq/internal/partition"
	"spatialseq/internal/simil"
	"spatialseq/internal/topk"
)

// checkEvery is the cancellation stride of the fill pass, in points
// walked: a few hundred microseconds of cosines between checks.
const checkEvery = 1 << 14

// Plan is the bound-ordered work of one search.
type Plan struct {
	// Work lists the subspaces to search, bound descending.
	Work []*partition.Subspace
	// UB[i] bounds the similarity of every tuple Work[i] can produce;
	// -Inf means it can produce none (a dimension with no candidate in
	// the cores it reads, or a pinned object outside it). Nil leaves
	// the work unbounded and in its given order.
	UB []float64
	// Computed counts the cosines the fill pass stored in the memo.
	Computed int64
}

// Verdict is what Check decides for one work subspace.
type Verdict int

const (
	// Search prepares and enumerates the subspace.
	Search Verdict = iota
	// Skip marks a subspace that can produce no tuple at all.
	Skip
	// Prune marks a subspace whose bound cannot beat the running k-th
	// result.
	Prune
)

// Check decides whether work subspace i is worth preparing against
// sink's current threshold.
func (p *Plan) Check(i int, sink topk.Sink) Verdict {
	if p.UB == nil {
		return Search
	}
	switch ub := p.UB[i]; {
	case math.IsInf(ub, -1):
		return Skip
	case !sink.WouldAccept(ub):
		return Prune
	}
	return Search
}

// Work lists the subspaces of part a search must visit, in partition
// order: all of them, or with dimension 0 pinned only the one whose core
// holds the pinned object (Lemma 1 discipline), narrowed to the cores own
// claims when own is non-nil.
func Work(sctx *simil.Context, part *partition.Partition, own func(core geo.Rect) bool) []*partition.Subspace {
	fixed0 := sctx.Ex.FixedDim(0)
	work := make([]*partition.Subspace, 0, len(part.Subspaces))
	for si := range part.Subspaces {
		ss := &part.Subspaces[si]
		if fixed0 >= 0 && !ss.Core.Contains(sctx.DS.Loc(int(fixed0))) {
			continue
		}
		if own != nil && !own(ss.Core) {
			continue
		}
		work = append(work, ss)
	}
	return work
}

// Order fills sctx's attribute-similarity memo with every cosine the
// search over work will read, bounds each work subspace and sorts the
// work by bound. work must come from Work over part; it is
// reordered in place and returned as the plan's Work. A single subspace
// has no memo reuse and nothing to order, so it is returned unbounded.
// Order checks ctx while it fills and returns ctx.Err() when cancelled.
func Order(ctx context.Context, sctx *simil.Context, part *partition.Partition, work []*partition.Subspace) (Plan, error) {
	if len(work) <= 1 {
		return Plan{Work: work}, nil
	}
	m := sctx.M
	need := make([]uint8, len(part.Subspaces))
	for _, ss := range work {
		need[ss.Index()] |= needCore
		for _, nb := range ss.Neighbours() {
			need[nb.Index()] |= needAC
		}
	}
	var computed int64
	pinned := make([]float64, m)
	for d := 0; d < m; d++ {
		if fixed := sctx.Ex.FixedDim(d); fixed >= 0 {
			pinned[d] = sctx.FillMemo(d, []int32{fixed})
			computed++
		}
	}
	coreMax := make([]float64, len(part.Subspaces)*m)
	walked, err := fill(ctx, sctx, part.Subspaces, need, coreMax)
	if err != nil {
		return Plan{}, err
	}
	computed += walked

	plan := Plan{Work: work, UB: make([]float64, len(work)), Computed: computed}
	for i, ss := range work {
		plan.UB[i] = subspaceBound(sctx, ss, coreMax, pinned)
	}
	sort.Sort(byBound(plan))
	return plan, nil
}

// byBound sorts a plan's work and bounds together: bound descending,
// ties by partition index — a total order, so the result does not
// depend on the sort's stability.
type byBound Plan

func (b byBound) Len() int { return len(b.Work) }

func (b byBound) Less(i, j int) bool {
	switch {
	case b.UB[i] > b.UB[j]:
		return true
	case b.UB[i] < b.UB[j]:
		return false
	}
	return b.Work[i].Index() < b.Work[j].Index()
}

func (b byBound) Swap(i, j int) {
	b.Work[i], b.Work[j] = b.Work[j], b.Work[i]
	b.UB[i], b.UB[j] = b.UB[j], b.UB[i]
}

// need flags which dimensions of a core's runs the search reads.
const (
	needCore uint8 = 1 << iota // dimension 0: the core is a work subspace's own
	needAC                     // dimensions >= 1: the core meets a work subspace's AC
)

// fill is the fused fill-and-bound pass: for every referenced core and
// unpinned dimension it scores the core's run of the dimension's category
// into the memo and records the run's maximum in coreMax[core*m+dim]
// (-Inf for an empty or unread run). It returns the number of cosines
// computed, checking ctx every checkEvery points.
//
//seq:hotpath
func fill(ctx context.Context, sctx *simil.Context, subs []partition.Subspace, need []uint8, coreMax []float64) (int64, error) {
	m := sctx.M
	var walked, next int
	for j := range subs {
		if need[j] == 0 {
			continue
		}
		if walked >= next {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			next = walked + checkEvery
		}
		for d := 0; d < m; d++ {
			best := math.Inf(-1)
			if sctx.Ex.FixedDim(d) < 0 && (d > 0 || need[j]&needCore != 0) {
				run := subs[j].CoreRun(sctx.Ex.Categories[d]).Pos
				best = sctx.FillMemo(d, run)
				walked += len(run)
			}
			coreMax[j*m+d] = best
		}
	}
	return int64(walked), nil
}

// subspaceBound is Combine(1, Vbar) for one work subspace, Vbar the mean
// of the per-dimension maxima: dimension 0 from the subspace's own core,
// later dimensions from every core meeting its AC, a pinned dimension
// from its object. The suffix is summed from the last dimension down and
// dimension 0 added last, the order prep's root bound uses, so rounding
// cannot put this bound below it.
func subspaceBound(sctx *simil.Context, ss *partition.Subspace, coreMax, pinned []float64) float64 {
	m := sctx.M
	var suffix, first float64
	for d := m - 1; d >= 0; d-- {
		best := math.Inf(-1)
		switch fixed := sctx.Ex.FixedDim(d); {
		case fixed >= 0:
			// The work list only holds the core containing a pinned
			// dimension-0 object; a later one must lie inside AC.
			if d == 0 || ss.AC.Contains(sctx.DS.Loc(int(fixed))) {
				best = pinned[d]
			}
		case d == 0:
			best = coreMax[ss.Index()*m]
		default:
			for _, nb := range ss.Neighbours() {
				best = max(best, coreMax[nb.Index()*m+d])
			}
		}
		if math.IsInf(best, -1) {
			return best
		}
		if d == 0 {
			first = best
		} else {
			suffix += best
		}
	}
	return sctx.Combine(1, (first+suffix)/float64(m))
}
