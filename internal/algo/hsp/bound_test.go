package hsp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"spatialseq/internal/algo/bound"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/testutil"
)

// TestSubspaceBoundCoversRoot is the subspace bound's property test over
// random datasets and CSEQ / CSEQ-FP queries: every work subspace's
// bound is at least the root bound its prep computes (so a pruned
// subspace could not have passed its first DFS check), a -Inf bound
// only marks subspaces prep skips, alpha = 1 prunes nothing, and the
// answers equal the unpartitioned (hence unbounded) search at one and
// at four workers.
func TestSubspaceBoundCoversRoot(t *testing.T) {
	ctx := context.Background()
	var roots int
	var pruned int64
	for _, c := range testutil.BoundCases(411, 6) {
		sctx := simil.NewContext(c.DS, c.Q)
		part, err := c.Ix.PartitionBucketed(sctx.PartitionRadius())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := bound.Order(ctx, sctx, part, bound.Work(sctx, part, nil))
		if err != nil {
			t.Fatal(err)
		}
		s := &searcher{sctx: sctx, q: c.Q, plan: &plan}
		var p prepState
		for i := range plan.UB {
			skip := s.prepareInto(&p, plan.Work[i])
			if math.IsInf(plan.UB[i], -1) {
				if !skip {
					t.Errorf("%s: subspace %d bounded -Inf but prepared", c.Name, plan.Work[i].Index())
				}
				continue
			}
			if skip {
				continue
			}
			root := sctx.Combine(1, (p.cands[0][0].Sim+p.rbarSuffix[1])/float64(sctx.M))
			if plan.UB[i] < root {
				t.Errorf("%s: subspace %d bound %v below its root bound %v", c.Name, plan.Work[i].Index(), plan.UB[i], root)
			}
			roots++
		}

		want, err := Search(ctx, c.DS, c.Ix, c.Q, Options{DisablePartition: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			st := &stats.Stats{}
			got, err := Search(ctx, c.DS, c.Ix, c.Q, Options{Parallelism: workers, Stats: st})
			if err != nil {
				t.Fatal(err)
			}
			if !simsEqual(simsOf(got), simsOf(want), 1e-9) {
				t.Errorf("%s workers=%d: sims %v, unpartitioned %v", c.Name, workers, simsOf(got), simsOf(want))
			}
			n := st.Snapshot().SubspacesPruned
			if c.Q.Params.Alpha == 1 && n != 0 {
				t.Errorf("%s workers=%d: alpha = 1 pruned %d subspaces", c.Name, workers, n)
			}
			pruned += n
		}
	}
	if roots == 0 || pruned == 0 {
		t.Fatalf("%d root bounds checked, %d subspaces pruned: the cases no longer exercise the bound", roots, pruned)
	}
	t.Logf("%d root bounds checked, %d subspaces pruned", roots, pruned)
}

// TestCancelDuringFill: a context cancelled while the fill-and-bound
// pass runs makes Search return its error and no results, before any
// subspace is prepared. Search polls Err once on entry and the pass
// polls it on its first core and then every few thousand points, so
// the third poll falls inside the pass.
func TestCancelDuringFill(t *testing.T) {
	rng := rand.New(rand.NewSource(413))
	ds := testutil.RandDataset(rng, 30000, 2, 4, 100)
	ix := buildIndex(ds)
	q := testutil.RandQuery(rng, ds, 3, 20, query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10})
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	ctx := &testutil.CancelAfter{Context: context.Background(), N: 3}
	st := &stats.Stats{}
	res, err := Search(ctx, ds, ix, q, Options{Stats: st})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Search = (%d results, %v) after %d polls, want (none, context.Canceled)", len(res), err, ctx.Calls)
	}
	if ctx.Calls != 3 {
		t.Errorf("%d Err polls, want 3: entry, first core, one stride into the pass", ctx.Calls)
	}
	if snap := st.Snapshot(); snap != (stats.Snapshot{}) {
		t.Errorf("cancelled fill still recorded work %+v", snap)
	}
}
