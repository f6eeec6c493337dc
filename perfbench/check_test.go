package main

import (
	"context"
	"sort"
	"testing"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/synth"
)

// answered returns a small dataset, a query of the given variant and the
// engine's exact answer to it.
func answered(t *testing.T, variant query.Variant, pins []int) (*dataset.Dataset, *query.Query, []tuple) {
	t.Helper()
	ds, err := synth.Generate(synth.GaodeLike(20_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	shape := gaodeShape
	shape.Scale, shape.Variant, shape.FixedDims = 20, variant, pins
	qs, err := generate(ds, shape, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	res, err := core.NewEngine(ds).Search(context.Background(), q, core.HSP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ans := tuplesOf(res)
	if len(ans) < 3 {
		t.Fatalf("want at least 3 tuples to corrupt, got %d", len(ans))
	}
	return ds, q, ans
}

// clone deep-copies an answer so a corruption never touches the original.
func clone(ans []tuple) []tuple {
	out := make([]tuple, len(ans))
	for i, t := range ans {
		out[i] = tuple{Positions: append([]int32(nil), t.Positions...), Sim: t.Sim}
	}
	return out
}

// rescore recomputes every tuple's similarity and re-sorts the answer,
// so a corruption is caught only by the check it targets.
func rescore(t *testing.T, ds *dataset.Dataset, q *query.Query, a []tuple) []tuple {
	t.Helper()
	sctx := simil.NewContext(ds, q)
	for i := range a {
		sim, ok := sctx.SimOfPositions(a[i].Positions)
		if !ok {
			t.Fatalf("corrupted tuple %v breaks the beta bound too", a[i].Positions)
		}
		a[i].Sim = sim
	}
	sort.SliceStable(a, func(i, j int) bool { return a[i].Sim > a[j].Sim })
	return a
}

// otherOf returns an object of category cat other than skip, the one
// farthest from skip when far is set.
func otherOf(ds *dataset.Dataset, cat dataset.CategoryID, skip int32, far bool) int32 {
	best, bestDist := int32(-1), -1.0
	for _, p := range ds.CategoryObjects(cat) {
		if p == skip {
			continue
		}
		if !far {
			return p
		}
		if d := ds.Loc(int(p)).Dist(ds.Loc(int(skip))); d > bestDist {
			best, bestDist = p, d
		}
	}
	return best
}

// otherCategory returns a category other than cat.
func otherCategory(ds *dataset.Dataset, cat dataset.CategoryID) dataset.CategoryID {
	return (cat + 1) % dataset.CategoryID(ds.NumCategories())
}

// nearestOf returns the object of category cat nearest to object near.
func nearestOf(ds *dataset.Dataset, cat dataset.CategoryID, near int32) int32 {
	best, bestDist := int32(-1), 0.0
	for _, p := range ds.CategoryObjects(cat) {
		if d := ds.Loc(int(p)).Dist(ds.Loc(int(near))); p != near && (best < 0 || d < bestDist) {
			best, bestDist = p, d
		}
	}
	return best
}

func TestCheckerCatchesCorruptedAnswers(t *testing.T) {
	ds, q, ans := answered(t, query.CSEQ, nil)
	if err := checkAnswer(ds, q, ans); err != nil {
		t.Fatalf("engine answer rejected: %v", err)
	}
	if err := compareExact(ans, ans); err != nil {
		t.Fatalf("answer differs from itself: %v", err)
	}
	corruptions := map[string]func(t *testing.T, a []tuple) []tuple{
		"sim off by 1e-6": func(_ *testing.T, a []tuple) []tuple { a[1].Sim += 1e-6; return a },
		"ranks swapped": func(_ *testing.T, a []tuple) []tuple {
			a[0], a[len(a)-1] = a[len(a)-1], a[0]
			return a
		},
		"wrong category": func(t *testing.T, a []tuple) []tuple {
			p := a[0].Positions
			p[1] = nearestOf(ds, otherCategory(ds, q.Example.Categories[1]), p[1])
			return rescore(t, ds, q, a)
		},
		"object repeated": func(_ *testing.T, a []tuple) []tuple {
			a[0].Positions[2] = a[0].Positions[0]
			q.Example.Categories[2] = q.Example.Categories[0]
			return a
		},
		"beta-norm broken": func(_ *testing.T, a []tuple) []tuple {
			p := a[0].Positions
			p[1] = otherOf(ds, q.Example.Categories[1], p[0], true)
			return a
		},
		"more than k": func(_ *testing.T, a []tuple) []tuple {
			for len(a) <= q.Params.K {
				a = append(a, a[len(a)-1])
			}
			return a
		},
		"dimension missing": func(_ *testing.T, a []tuple) []tuple {
			a[0].Positions = a[0].Positions[:2]
			return a
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			saved := append([]dataset.CategoryID(nil), q.Example.Categories...)
			defer func() { q.Example.Categories = saved }()
			if err := checkAnswer(ds, q, corrupt(t, clone(ans))); err == nil {
				t.Errorf("corrupted answer (%s) passed the checker", name)
			}
		})
	}
}

func TestCheckerCatchesBrokenPin(t *testing.T) {
	ds, q, ans := answered(t, query.CSEQFP, []int{0})
	if err := checkAnswer(ds, q, ans); err != nil {
		t.Fatalf("engine answer rejected: %v", err)
	}
	bad := clone(ans)
	// Move the pinned dimension to its nearest same-category neighbour
	// and rescore: category, beta bound, similarity and order all hold,
	// only the pin is broken.
	bad[0].Positions[0] = nearestOf(ds, q.Example.Categories[0], bad[0].Positions[0])
	bad = rescore(t, ds, q, bad)
	if err := checkAnswer(ds, q, bad); err == nil {
		t.Error("answer ignoring the pin passed the checker")
	}
}

func TestCompareExactCatchesMismatch(t *testing.T) {
	ds, q, ans := answered(t, query.CSEQ, nil)
	dropped := clone(ans)[:len(ans)-1]
	if compareExact(dropped, ans) == nil {
		t.Error("answer missing its last tuple matched the exact reference")
	}
	replaced := clone(ans)
	replaced[1].Positions[0] = otherOf(ds, q.Example.Categories[0], replaced[1].Positions[0], false)
	if compareExact(replaced, ans) == nil {
		t.Error("answer with a replaced tuple matched the exact reference")
	}
	if hit, total := recallOf(replaced, ans); hit != total-1 {
		t.Errorf("recall of one replaced tuple = %d/%d, want %d/%d", hit, total, total-1, total)
	}
}
