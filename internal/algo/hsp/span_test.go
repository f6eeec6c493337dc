package hsp

import (
	"context"
	"math/rand"
	"testing"

	"spatialseq/internal/obs/span"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/testutil"
)

// TestSpanTimeline verifies the unit-span tree a parallel (stealing)
// HSP search records: one "hsp.prep" span per subspace carrying the
// subspace-level delta (searched/skipped marks, candidate volume, memo
// hits), one "hsp.chunk" span per stolen enumeration unit carrying the
// DFS delta, every unit tagged with both its worker lane and owning
// subspace, and the per-unit deltas summing to the query-wide counters.
func TestSpanTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	ds := testutil.RandDataset(rng, 300, 3, 4, 100)
	ix := buildIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	st := &stats.Stats{}
	tr := span.NewTracer()
	root := tr.Root("search")
	if _, err := Search(context.Background(), ds, ix, q, Options{
		Parallelism: 4, Stats: st, Span: root,
	}); err != nil {
		t.Fatal(err)
	}
	root.End()

	tree := tr.Snapshot()
	if tree == nil {
		t.Fatal("no spans recorded")
	}
	workers := make(map[int32]bool)
	searched := make(map[int32]bool)
	chunkSubs := make(map[int32]bool)
	var prepSpans, chunkSpans int
	var workSubspaces, workSkipped, workCand, workHits, maxCand int64
	var workPruned, workTuples, workOffered int64
	for _, n := range tree.Nodes {
		switch n.Name {
		case "hsp.prep":
			prepSpans++
			if n.Subspace < 0 {
				t.Error("prep span without subspace tag")
			}
			if n.Worker < 0 {
				t.Error("prep span outside a worker lane")
			}
			workers[n.Worker] = true
			if n.Work == nil {
				t.Fatal("prep span without work delta")
			}
			workSubspaces += n.Work.Subspaces
			workSkipped += n.Work.SubspacesSkipped
			workCand += n.Work.Candidates
			workHits += n.Work.AttrSimMemoHits
			if n.Work.Subspaces == 1 {
				searched[n.Subspace] = true
			}
			if n.Work.Candidates != n.Work.SubspaceCandidatesMax {
				t.Errorf("per-subspace delta: candidates %d != own max %d",
					n.Work.Candidates, n.Work.SubspaceCandidatesMax)
			}
			if n.Work.SubspaceCandidatesMax > maxCand {
				maxCand = n.Work.SubspaceCandidatesMax
			}
		case "hsp.chunk":
			chunkSpans++
			if n.Subspace < 0 {
				t.Error("chunk span without subspace tag")
			}
			if n.Worker < 0 {
				t.Error("chunk span outside a worker lane")
			}
			workers[n.Worker] = true
			if n.Work == nil {
				t.Fatal("chunk span without work delta")
			}
			chunkSubs[n.Subspace] = true
			workPruned += n.Work.PrunedPrefixes
			workTuples += n.Work.Tuples
			workOffered += n.Work.Offered
		case "hsp.worker", "hsp.subspace":
			t.Errorf("parallel path recorded legacy %q span", n.Name)
		}
	}
	if len(workers) == 0 || len(workers) > 4 {
		t.Errorf("got %d worker lanes, want 1..4", len(workers))
	}
	snap := st.Snapshot()
	if prepSpans == 0 || workSubspaces+workSkipped != snap.Subspaces+snap.SubspacesSkipped {
		t.Errorf("prep deltas (%d searched + %d skipped over %d spans) disagree with counters (%d + %d)",
			workSubspaces, workSkipped, prepSpans, snap.Subspaces, snap.SubspacesSkipped)
	}
	if workCand != snap.Candidates {
		t.Errorf("prep candidate deltas sum to %d, counters say %d", workCand, snap.Candidates)
	}
	if workHits != snap.AttrSimMemoHits {
		t.Errorf("prep memo-hit deltas sum to %d, counters say %d", workHits, snap.AttrSimMemoHits)
	}
	if snap.SubspaceCandidatesMax != maxCand {
		t.Errorf("SubspaceCandidatesMax = %d, want the span-tree max %d", snap.SubspaceCandidatesMax, maxCand)
	}
	// Every searched subspace published at least one chunk, and every
	// chunk belongs to a searched subspace.
	if chunkSpans < len(searched) {
		t.Errorf("%d chunk spans for %d searched subspaces", chunkSpans, len(searched))
	}
	if len(chunkSubs) != len(searched) {
		t.Errorf("chunks cover %d subspaces, %d were searched", len(chunkSubs), len(searched))
	}
	for sub := range chunkSubs {
		if !searched[sub] {
			t.Errorf("chunk recorded for unsearched subspace %d", sub)
		}
	}
	if workPruned != snap.PrunedPrefixes || workTuples != snap.Tuples || workOffered != snap.Offered {
		t.Errorf("chunk deltas (pruned %d, tuples %d, offered %d) disagree with counters (%d, %d, %d)",
			workPruned, workTuples, workOffered, snap.PrunedPrefixes, snap.Tuples, snap.Offered)
	}
	if sk := tr.Skew(); sk == nil || sk.Workers != len(workers) {
		t.Errorf("skew report = %+v, want %d workers", sk, len(workers))
	}

	// The derived flat aggregate exposes leaf phases, not containers.
	for _, p := range tr.PhaseTimings() {
		if p.Name == "search" {
			t.Errorf("container span %q leaked into phase timings", p.Name)
		}
	}
}

// TestSpanSequentialLane: the sequential path still records a single
// worker-0 lane so timelines and skew reports have a uniform shape.
func TestSpanSequentialLane(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	ds := testutil.RandDataset(rng, 200, 3, 4, 100)
	ix := buildIndex(ds)
	params := query.Params{K: 4, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	tr := span.NewTracer()
	root := tr.Root("search")
	if _, err := Search(context.Background(), ds, ix, q, Options{Span: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	sk := tr.Skew()
	if sk == nil || sk.Workers != 1 || sk.Parallel {
		t.Errorf("sequential skew = %+v, want exactly one non-parallel lane", sk)
	}
	if sk != nil && sk.ImbalanceRatio != 1 {
		t.Errorf("single lane imbalance = %v, want 1", sk.ImbalanceRatio)
	}
}

// TestSpanOneWorkerUnits: a Parallelism 0 search runs through the same
// unit driver as the stealing path — only lane-0 "hsp.prep" /
// "hsp.chunk" units, exactly one whole-subspace chunk per searched
// subspace, and no unit at all for a subspace its bound pruned — and its
// skew report shows one non-parallel lane.
func TestSpanOneWorkerUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	ds := testutil.RandDataset(rng, 300, 3, 4, 100)
	ix := buildIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	st := &stats.Stats{}
	tr := span.NewTracer()
	root := tr.Root("search")
	if _, err := Search(context.Background(), ds, ix, q, Options{Parallelism: 0, Stats: st, Span: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	chunks := make(map[int32]int)
	searched := make(map[int32]bool)
	preps := 0
	for _, n := range tr.Snapshot().Nodes {
		switch n.Name {
		case "hsp.prep", "hsp.chunk":
			if n.Worker != 0 {
				t.Errorf("%s span on lane %d, want lane 0", n.Name, n.Worker)
			}
			if n.Name == "hsp.chunk" {
				chunks[n.Subspace]++
			} else {
				preps++
				if n.Work != nil && n.Work.Subspaces == 1 {
					searched[n.Subspace] = true
				}
			}
		case "search", "hsp.partition", "hsp.simprep", "topk.merge":
		default:
			t.Errorf("unexpected span %q", n.Name)
		}
	}
	snap := st.Snapshot()
	if int64(len(searched)) != snap.Subspaces || len(searched) == 0 {
		t.Fatalf("%d searched prep spans, counters say %d subspaces", len(searched), snap.Subspaces)
	}
	// Every work subspace is prepared (one prep span, searched or
	// skipped) or pruned by its bound before any span opens.
	part, err := ix.PartitionBucketed(simil.NewContext(ds, q).PartitionRadius())
	if err != nil {
		t.Fatal(err)
	}
	if int64(preps) != snap.Subspaces+snap.SubspacesSkipped || preps+int(snap.SubspacesPruned) != len(part.Subspaces) {
		t.Errorf("%d prep spans + %d pruned for %d subspaces (counters: %d searched, %d skipped)",
			preps, snap.SubspacesPruned, len(part.Subspaces), snap.Subspaces, snap.SubspacesSkipped)
	}
	if snap.SubspacesPruned == 0 {
		t.Error("no subspace pruned: the query no longer exercises the subspace bound")
	}
	for sub := range searched {
		if chunks[sub] != 1 {
			t.Errorf("subspace %d ran in %d chunks, want 1", sub, chunks[sub])
		}
	}
	if len(chunks) != len(searched) {
		t.Errorf("chunks cover %d subspaces, %d were searched", len(chunks), len(searched))
	}
	if sk := tr.Skew(); sk == nil || sk.Workers != 1 || sk.Parallel {
		t.Errorf("one-worker skew = %+v, want exactly one non-parallel lane", sk)
	}
}
