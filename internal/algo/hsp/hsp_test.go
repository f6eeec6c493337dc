package hsp

import (
	"context"
	"math/rand"
	"testing"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/algo/dfsprune"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

// buildIndex, simsOf and simsEqual are the shared helpers from
// internal/testutil; the aliases keep this file's call sites short.
var (
	buildIndex = testutil.BuildIndex
	simsOf     = testutil.Sims
	simsEqual  = testutil.SimsEqual
)

// TestExactnessAgainstBruteForce is the central correctness test: HSP and
// DFS-Prune must return the same top-k similarities as naive exhaustive
// search, across problem variants and parameter settings.
func TestExactnessAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	configs := []struct {
		n, cats, m int
		beta       float64
		alpha      float64
		variant    query.Variant
	}{
		{60, 3, 2, 1.5, 0.5, query.CSEQ},
		{60, 3, 3, 1.5, 0.5, query.CSEQ},
		{80, 4, 3, 3.0, 0.5, query.CSEQ},
		{80, 2, 3, 1.2, 0.9, query.CSEQ},
		{80, 2, 3, 1.2, 0.1, query.CSEQ},
		{50, 3, 4, 2.0, 0.5, query.CSEQ},
		{60, 3, 3, 1.5, 0.5, query.SEQ},
		{40, 2, 2, 9.0, 0.3, query.CSEQ},
	}
	for ci, cfg := range configs {
		for trial := 0; trial < 4; trial++ {
			ds := testutil.RandDataset(rng, cfg.n, cfg.cats, 4, 100)
			ix := buildIndex(ds)
			params := query.Params{K: 5, Alpha: cfg.alpha, Beta: cfg.beta, GridD: 4, Xi: 10}
			q := testutil.RandQuery(rng, ds, cfg.m, 30, params)
			q.Variant = cfg.variant
			if err := q.Validate(ds); err != nil {
				t.Fatalf("config %d: %v", ci, err)
			}
			want := simsOf(brute.Search(ds, q))

			gotHSP, err := Search(context.Background(), ds, ix, q, Options{})
			if err != nil {
				t.Fatalf("config %d trial %d: HSP: %v", ci, trial, err)
			}
			if !simsEqual(simsOf(gotHSP), want, 1e-9) {
				t.Errorf("config %d trial %d: HSP sims %v != brute %v", ci, trial, simsOf(gotHSP), want)
			}

			gotDFS, err := dfsprune.Search(context.Background(), ds, q, dfsprune.Options{})
			if err != nil {
				t.Fatalf("config %d trial %d: DFS-Prune: %v", ci, trial, err)
			}
			if !simsEqual(simsOf(gotDFS), want, 1e-9) {
				t.Errorf("config %d trial %d: DFS-Prune sims %v != brute %v", ci, trial, simsOf(gotDFS), want)
			}
		}
	}
}

func TestAblationVariantsStayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ds := testutil.RandDataset(rng, 70, 3, 4, 100)
	ix := buildIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	for trial := 0; trial < 5; trial++ {
		q := testutil.RandQuery(rng, ds, 3, 25, params)
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		want := simsOf(brute.Search(ds, q))
		for _, opt := range []Options{
			{DisablePartition: true},
			{LooseBounds: true},
			{SortedBreak: true},
			{DisablePartition: true, LooseBounds: true, SortedBreak: true},
		} {
			got, err := Search(context.Background(), ds, ix, q, opt)
			if err != nil {
				t.Fatalf("opt %+v: %v", opt, err)
			}
			if !simsEqual(simsOf(got), want, 1e-9) {
				t.Errorf("opt %+v: sims %v != brute %v", opt, simsOf(got), want)
			}
		}
	}
}

func TestFixedPointExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		ds := testutil.RandDataset(rng, 70, 3, 4, 100)
		ix := buildIndex(ds)
		params := query.Params{K: 4, Alpha: 0.5, Beta: 2.0, GridD: 4, Xi: 10}
		q := testutil.RandQuery(rng, ds, 3, 25, params)
		// pin dimension 1 (and sometimes 0) to real dataset objects
		pinDims := []int{1}
		if trial%2 == 0 {
			pinDims = []int{0, 2}
		}
		for _, d := range pinDims {
			cands := ds.CategoryObjects(q.Example.Categories[d])
			if len(cands) == 0 {
				t.Skip("no candidate for pinned category")
			}
			obj := cands[rng.Intn(len(cands))]
			q.Example.Fixed = append(q.Example.Fixed, query.FixedPoint{Dim: d, Obj: obj})
		}
		q.Variant = query.CSEQFP
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		want := brute.Search(ds, q)
		got, err := Search(context.Background(), ds, ix, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !simsEqual(simsOf(got), simsOf(want), 1e-9) {
			t.Errorf("trial %d: CSEQ-FP sims %v != brute %v", trial, simsOf(got), simsOf(want))
		}
		// every result must contain the pinned objects at the pinned dims
		for _, e := range got {
			for _, f := range q.Example.Fixed {
				if e.Tuple[f.Dim] != f.Obj {
					t.Errorf("result %v does not honour pin %+v", e.Tuple, f)
				}
			}
		}
	}
}

func TestResultsSatisfyNormConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ds := testutil.RandDataset(rng, 120, 3, 4, 100)
	ix := buildIndex(ds)
	params := query.Params{K: 8, Alpha: 0.5, Beta: 1.3, GridD: 4, Xi: 10}
	for trial := 0; trial < 6; trial++ {
		q := testutil.RandQuery(rng, ds, 3, 20, params)
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		res, err := Search(context.Background(), ds, ix, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref := q.Example.Norm()
		for _, e := range res {
			locs := make([]geo.Point, len(e.Tuple))
			for d, pos := range e.Tuple {
				locs[d] = ds.Object(int(pos)).Loc
			}
			n := geo.TupleNorm(locs)
			if !geo.NormOK(n, ref, q.Params.Beta) {
				t.Errorf("result %v violates beta-norm: ||V||=%g ref=%g beta=%g", e.Tuple, n, ref, q.Params.Beta)
			}
		}
	}
}

func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ds := testutil.RandDataset(rng, 3000, 2, 4, 100)
	ix := buildIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 9, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 4, 60, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, ds, ix, q, Options{}); err == nil {
		t.Error("cancelled context should abort the search")
	}
}

func TestEmptyCategoryYieldsNoResults(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	b := &dataset.Builder{}
	used := b.Category("used")
	empty := b.Category("empty")
	for i := 0; i < 20; i++ {
		b.Add(dataset.Object{
			ID:       int64(i),
			Loc:      geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
			Category: used,
			Attr:     []float64{0.5, 0.5},
		})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIndex(ds)
	q := &query.Query{
		Variant: query.CSEQ,
		Example: query.Example{
			Categories: []dataset.CategoryID{used, empty},
			Locations:  []geo.Point{{X: 1, Y: 1}, {X: 2, Y: 2}},
			Attrs:      [][]float64{{0.5, 0.5}, {0.5, 0.5}},
		},
		Params: query.Params{K: 3, Alpha: 0.5, Beta: 2, GridD: 3, Xi: 5},
	}
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	res, err := Search(context.Background(), ds, ix, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("expected no results for an empty category, got %d", len(res))
	}
}

func TestKLargerThanCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ds := testutil.RandDataset(rng, 12, 2, 3, 50)
	ix := buildIndex(ds)
	params := query.Params{K: 500, Alpha: 0.5, Beta: 9, GridD: 3, Xi: 10}
	q := testutil.RandQuery(rng, ds, 2, 20, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	got, err := Search(context.Background(), ds, ix, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := brute.Search(ds, q)
	if !simsEqual(simsOf(got), simsOf(want), 1e-9) {
		t.Errorf("oversized k: HSP returned %d results, brute %d", len(got), len(want))
	}
}
