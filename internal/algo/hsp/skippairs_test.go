package hsp

import (
	"context"
	"math/rand"
	"testing"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/algo/dfsprune"
	"spatialseq/internal/algo/lora"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

// The skipped-pairs variant ("distance pairs not interested", paper
// Section II remarks): exactness must hold with masked distance vectors,
// and the partitioning must widen its radius by the pair-graph diameter.

func TestSkipPairsExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 6; trial++ {
		ds := testutil.RandDataset(rng, 60, 3, 4, 100)
		ix := buildIndex(ds)
		params := query.Params{K: 5, Alpha: 0.5, Beta: 2.0, GridD: 4, Xi: 10}
		q := testutil.RandQuery(rng, ds, 4, 30, params)
		// skip (0,2) and (1,3): the pair graph stays connected (path via
		// the other pairs), diameter 2.
		q.Example.SkipPairs = [][2]int{{0, 2}, {1, 3}}
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		if diam, connected := q.Example.PairGraphDiameter(); !connected || diam != 2 {
			t.Fatalf("diameter = %d, connected = %v; want 2, true", diam, connected)
		}
		want := simsOf(brute.Search(ds, q))
		got, err := Search(context.Background(), ds, ix, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !simsEqual(simsOf(got), want, 1e-9) {
			t.Errorf("trial %d: HSP with skipped pairs %v != brute %v", trial, simsOf(got), want)
		}
		gotDFS, err := dfsprune.Search(context.Background(), ds, q, dfsprune.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !simsEqual(simsOf(gotDFS), want, 1e-9) {
			t.Errorf("trial %d: DFS-Prune with skipped pairs diverges", trial)
		}
	}
}

func TestSkipPairsLORAStaysNearExact(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	ds := testutil.RandDataset(rng, 120, 3, 4, 100)
	ix := buildIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 2.0, GridD: 6, Xi: -1}
	q := testutil.RandQuery(rng, ds, 3, 25, params)
	q.Example.SkipPairs = [][2]int{{0, 2}}
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	q.Params.Xi = -1
	exact := simsOf(brute.Search(ds, q))
	approx, err := lora.Search(context.Background(), ds, ix, q, lora.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := simsOf(approx)
	for i := range got {
		if i < len(exact) && got[i] > exact[i]+1e-9 {
			t.Errorf("rank %d: LORA %g exceeds exact %g", i, got[i], exact[i])
		}
	}
	if len(exact) > 0 && len(got) == 0 {
		t.Error("LORA found nothing where exact found results")
	}
}

func TestSkipPairsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	ds := testutil.RandDataset(rng, 50, 3, 4, 100)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 2.0, GridD: 4, Xi: 10}

	// out-of-range pair
	q := testutil.RandQuery(rng, ds, 3, 25, params)
	q.Example.SkipPairs = [][2]int{{0, 7}}
	if err := q.Validate(ds); err == nil {
		t.Error("out-of-range skipped pair should be rejected")
	}

	// self pair
	q = testutil.RandQuery(rng, ds, 3, 25, params)
	q.Example.SkipPairs = [][2]int{{1, 1}}
	if err := q.Validate(ds); err == nil {
		t.Error("self pair should be rejected")
	}

	// all pairs skipped
	q = testutil.RandQuery(rng, ds, 2, 25, params)
	q.Example.SkipPairs = [][2]int{{0, 1}}
	if err := q.Validate(ds); err == nil {
		t.Error("skipping every pair should be rejected")
	}

	// disconnected graph under CSEQ: m=3, skip (0,1) and (0,2) isolates 0
	q = testutil.RandQuery(rng, ds, 3, 25, params)
	q.Example.SkipPairs = [][2]int{{0, 1}, {0, 2}}
	if err := q.Validate(ds); err == nil {
		t.Error("disconnected pair graph under CSEQ should be rejected")
	}

	// ... but allowed under SEQ (no norm constraint to enforce)
	q = testutil.RandQuery(rng, ds, 3, 25, params)
	q.Example.SkipPairs = [][2]int{{0, 1}, {0, 2}}
	q.Variant = query.SEQ
	if err := q.Validate(ds); err != nil {
		t.Errorf("SEQ with disconnected pair graph should validate: %v", err)
	}
}

func TestSkipPairsChangeResults(t *testing.T) {
	// Masking a pair must actually remove its influence: construct a
	// dataset where the masked pair's distance is the only difference.
	rng := rand.New(rand.NewSource(104))
	ds := testutil.RandDataset(rng, 80, 3, 4, 100)
	params := query.Params{K: 5, Alpha: 1.0, Beta: 9, GridD: 4, Xi: 10} // alpha=1: spatial only
	q := testutil.RandQuery(rng, ds, 3, 25, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	full := q.Example.DistVector()
	q.Example.SkipPairs = [][2]int{{0, 1}}
	masked := q.Example.DistVector()
	if len(masked) != len(full)-1 {
		t.Fatalf("masked vector has %d entries, want %d", len(masked), len(full)-1)
	}
}
