// Package stats defines the per-search counters the algorithms expose for
// observability: how many subspaces a query touched, how many candidate
// tuples were scored versus pruned, how much work the cell and point
// enumeration phases did. The counters explain *why* a query was fast or
// slow — the companion to the wall-clock numbers the evaluation reports.
//
// Counters use atomics so parallel subspace workers can share one Stats.
package stats

import "sync/atomic"

// Stats collects per-search counters. The zero value is ready to use; nil
// receivers are safe no-ops so the hot paths stay branch-cheap when
// statistics are disabled.
type Stats struct {
	// Subspaces is the number of ac-subspaces searched (after skips).
	Subspaces atomic.Int64
	// SubspacesSkipped counts subspaces skipped before any enumeration
	// (missing category, pinned point elsewhere).
	SubspacesSkipped atomic.Int64
	// SubspacesPruned counts subspaces never prepared because their
	// subspace-level upper bound could not beat the running k-th result.
	SubspacesPruned atomic.Int64
	// Candidates is the number of candidate points considered across all
	// dimension lists.
	Candidates atomic.Int64
	// PrunedPrefixes counts prefixes cut by an upper bound.
	PrunedPrefixes atomic.Int64
	// Tuples is the number of complete tuples scored (norm-checked).
	Tuples atomic.Int64
	// Offered is the number of tuples offered to the top-k.
	Offered atomic.Int64
	// CellTuples is the number of complete cell tuples LORA examined.
	CellTuples atomic.Int64
	// PrunedCellPrefixes counts cell prefixes cut by the cell bound.
	PrunedCellPrefixes atomic.Int64
	// RankPops is the number of rank-graph combinations popped.
	RankPops atomic.Int64
	// SampledOut is the number of candidate points discarded by
	// query-dependent sampling.
	SampledOut atomic.Int64
	// AttrSimMemoHits counts attribute-similarity lookups served from the
	// query-scoped memo table (cosines *not* recomputed).
	AttrSimMemoHits atomic.Int64
	// AttrSimMemoMisses counts attribute cosines actually computed while
	// the memo was enabled (lazy fills plus eager precompute).
	AttrSimMemoMisses atomic.Int64
	// SubspaceCandidatesMax tracks the largest per-subspace candidate
	// volume of the query — a max, not a sum: it measures how lopsided
	// the subspace decomposition was, the load-skew signal behind the
	// span tracer's straggler attribution. Data-determined (independent
	// of worker scheduling), so replay equality holds under parallelism.
	SubspaceCandidatesMax atomic.Int64
}

// AddSnapshot adds every counter of a unit's work batch d to s and
// raises SubspaceCandidatesMax to d's value — the one route by which
// the algorithms publish work. They batch a unit's counters in a plain
// Snapshot (the hot loops bump plain int64 fields, not atomics), then
// hand that same value here and to the unit's span. A nil receiver is
// a no-op, so statistics cost nothing when disabled.
func (s *Stats) AddSnapshot(d Snapshot) {
	if s == nil {
		return
	}
	add(&s.Subspaces, d.Subspaces)
	add(&s.SubspacesSkipped, d.SubspacesSkipped)
	add(&s.SubspacesPruned, d.SubspacesPruned)
	add(&s.Candidates, d.Candidates)
	add(&s.PrunedPrefixes, d.PrunedPrefixes)
	add(&s.Tuples, d.Tuples)
	add(&s.Offered, d.Offered)
	add(&s.CellTuples, d.CellTuples)
	add(&s.PrunedCellPrefixes, d.PrunedCellPrefixes)
	add(&s.RankPops, d.RankPops)
	add(&s.SampledOut, d.SampledOut)
	add(&s.AttrSimMemoHits, d.AttrSimMemoHits)
	add(&s.AttrSimMemoMisses, d.AttrSimMemoMisses)
	// CAS loop: parallel workers race to publish their subspace totals.
	for {
		cur := s.SubspaceCandidatesMax.Load()
		if d.SubspaceCandidatesMax <= cur || s.SubspaceCandidatesMax.CompareAndSwap(cur, d.SubspaceCandidatesMax) {
			return
		}
	}
}

// add skips zero deltas: most units touch a few counters, and an
// atomic add of 0 would still contend for the shared cache line.
func add(c *atomic.Int64, n int64) {
	if n != 0 {
		c.Add(n)
	}
}

// Snapshot is a plain-value copy for reporting. The JSON tags are the
// wire names the search API uses; Each exposes the same names to the
// server's cumulative work metrics, so evaluation counters and
// production metrics share one set of definitions.
type Snapshot struct {
	Subspaces          int64 `json:"subspaces"`
	SubspacesSkipped   int64 `json:"subspaces_skipped"`
	SubspacesPruned    int64 `json:"subspaces_pruned"`
	Candidates         int64 `json:"candidates"`
	PrunedPrefixes     int64 `json:"pruned_prefixes"`
	Tuples             int64 `json:"tuples"`
	Offered            int64 `json:"offered"`
	CellTuples         int64 `json:"cell_tuples"`
	PrunedCellPrefixes int64 `json:"pruned_cell_prefixes"`
	RankPops           int64 `json:"rank_pops"`
	SampledOut         int64 `json:"sampled_out"`
	// The memo counters are cache telemetry, not enumeration work: hits
	// measure cosines *avoided*. bench.WorkTotal excludes the
	// "attr_sim_memo_" prefix for exactly that reason.
	AttrSimMemoHits   int64 `json:"attr_sim_memo_hits"`
	AttrSimMemoMisses int64 `json:"attr_sim_memo_misses"`
	// SubspaceCandidatesMax is a max, not a sum (the largest single
	// subspace's candidate volume); Add takes the larger of the two and
	// bench.WorkTotal excludes it from work sums by name.
	SubspaceCandidatesMax int64 `json:"subspace_candidates_max"`
}

// Each calls f with every counter's snake_case name and value, in
// declaration order — the single source of counter names for metrics
// exporters.
func (s Snapshot) Each(f func(name string, value int64)) {
	f("subspaces", s.Subspaces)
	f("subspaces_skipped", s.SubspacesSkipped)
	f("subspaces_pruned", s.SubspacesPruned)
	f("candidates", s.Candidates)
	f("pruned_prefixes", s.PrunedPrefixes)
	f("tuples", s.Tuples)
	f("offered", s.Offered)
	f("cell_tuples", s.CellTuples)
	f("pruned_cell_prefixes", s.PrunedCellPrefixes)
	f("rank_pops", s.RankPops)
	f("sampled_out", s.SampledOut)
	f("attr_sim_memo_hits", s.AttrSimMemoHits)
	f("attr_sim_memo_misses", s.AttrSimMemoMisses)
	f("subspace_candidates_max", s.SubspaceCandidatesMax)
}

// Add returns the field-wise sum of s and o — except
// SubspaceCandidatesMax, which keeps max semantics (the accumulated
// value is the worst single subspace seen, not a meaningless sum of
// maxima). The evaluation harness uses Add to accumulate per-query
// snapshots into a per-run work total.
func (s Snapshot) Add(o Snapshot) Snapshot {
	s.Subspaces += o.Subspaces
	s.SubspacesSkipped += o.SubspacesSkipped
	s.SubspacesPruned += o.SubspacesPruned
	s.Candidates += o.Candidates
	s.PrunedPrefixes += o.PrunedPrefixes
	s.Tuples += o.Tuples
	s.Offered += o.Offered
	s.CellTuples += o.CellTuples
	s.PrunedCellPrefixes += o.PrunedCellPrefixes
	s.RankPops += o.RankPops
	s.SampledOut += o.SampledOut
	s.AttrSimMemoHits += o.AttrSimMemoHits
	s.AttrSimMemoMisses += o.AttrSimMemoMisses
	if o.SubspaceCandidatesMax > s.SubspaceCandidatesMax {
		s.SubspaceCandidatesMax = o.SubspaceCandidatesMax
	}
	return s
}

// Snapshot copies the counters. A nil receiver yields a zero snapshot.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		Subspaces:             s.Subspaces.Load(),
		SubspacesSkipped:      s.SubspacesSkipped.Load(),
		SubspacesPruned:       s.SubspacesPruned.Load(),
		Candidates:            s.Candidates.Load(),
		PrunedPrefixes:        s.PrunedPrefixes.Load(),
		Tuples:                s.Tuples.Load(),
		Offered:               s.Offered.Load(),
		CellTuples:            s.CellTuples.Load(),
		PrunedCellPrefixes:    s.PrunedCellPrefixes.Load(),
		RankPops:              s.RankPops.Load(),
		SampledOut:            s.SampledOut.Load(),
		AttrSimMemoHits:       s.AttrSimMemoHits.Load(),
		AttrSimMemoMisses:     s.AttrSimMemoMisses.Load(),
		SubspaceCandidatesMax: s.SubspaceCandidatesMax.Load(),
	}
}
