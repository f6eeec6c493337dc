package bound

import (
	"context"
	"errors"
	"math"
	"testing"

	"spatialseq/internal/simil"
	"spatialseq/internal/testutil"
	"spatialseq/internal/topk"
)

// plan builds a fresh Context and partition for c and orders its work.
func plan(t *testing.T, c testutil.BoundCase) (Plan, *simil.Context) {
	t.Helper()
	sctx := simil.NewContext(c.DS, c.Q)
	part, err := c.Ix.PartitionBucketed(sctx.PartitionRadius())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Order(context.Background(), sctx, part, Work(sctx, part, nil))
	if err != nil {
		t.Fatal(err)
	}
	return p, sctx
}

// TestOrderIsBoundDescendingAndDeterministic: the plan lists its work by
// bound descending, ties by partition index, and two plans of one query
// agree subspace for subspace and bit for bit. The plan is fixed before
// the scheduler sees a worker count, so every worker count prepares the
// subspaces in this order.
func TestOrderIsBoundDescendingAndDeterministic(t *testing.T) {
	var bounded int
	for _, c := range testutil.BoundCases(401, 6) {
		a, _ := plan(t, c)
		b, _ := plan(t, c)
		if len(a.Work) <= 1 {
			if a.UB != nil {
				t.Errorf("%s: single-subspace plan carries bounds", c.Name)
			}
			continue
		}
		bounded++
		if len(a.UB) != len(a.Work) || a.Computed == 0 {
			t.Fatalf("%s: %d bounds and %d cosines for %d subspaces", c.Name, len(a.UB), a.Computed, len(a.Work))
		}
		for i := range a.Work {
			if a.Work[i].Index() != b.Work[i].Index() || math.Float64bits(a.UB[i]) != math.Float64bits(b.UB[i]) {
				t.Fatalf("%s: plans diverge at %d: subspace %d (%v) vs %d (%v)",
					c.Name, i, a.Work[i].Index(), a.UB[i], b.Work[i].Index(), b.UB[i])
			}
			if i == 0 {
				continue
			}
			prev, cur := a.UB[i-1], a.UB[i]
			if prev < cur || (prev == cur && a.Work[i-1].Index() >= a.Work[i].Index()) {
				t.Errorf("%s: position %d: (%v, subspace %d) before (%v, subspace %d)",
					c.Name, i, prev, a.Work[i-1].Index(), cur, a.Work[i].Index())
			}
		}
	}
	if bounded == 0 {
		t.Fatal("no case had more than one subspace")
	}
}

// TestAlphaOneBoundsAreOne: with alpha = 1 the bound is alpha*1 = 1 for
// every subspace that can produce a tuple, which no similarity exceeds,
// so nothing is pruned against any threshold a result can set.
func TestAlphaOneBoundsAreOne(t *testing.T) {
	for _, c := range testutil.BoundCases(402, 4) {
		if c.Q.Params.Alpha != 1 {
			continue
		}
		p, _ := plan(t, c)
		full := topk.New(1)
		full.Offer([]int32{0}, 1)
		for i, ub := range p.UB {
			if math.IsInf(ub, -1) {
				continue
			}
			if ub != 1 || p.Check(i, full) != Search {
				t.Errorf("%s: subspace %d bound %v, verdict %d against a threshold of 1", c.Name, p.Work[i].Index(), ub, p.Check(i, full))
			}
		}
	}
}

// TestCancelledFill: a cancelled context stops the fill pass, which
// reports the context's error and no plan.
func TestCancelledFill(t *testing.T) {
	for _, c := range testutil.BoundCases(403, 1) {
		sctx := simil.NewContext(c.DS, c.Q)
		part, err := c.Ix.PartitionBucketed(sctx.PartitionRadius())
		if err != nil {
			t.Fatal(err)
		}
		work := Work(sctx, part, nil)
		if len(work) <= 1 {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		p, err := Order(ctx, sctx, part, work)
		if !errors.Is(err, context.Canceled) || p.Work != nil {
			t.Fatalf("%s: cancelled Order = (%d subspaces, %v), want (none, context.Canceled)", c.Name, len(p.Work), err)
		}
		return
	}
	t.Fatal("no multi-subspace case")
}
