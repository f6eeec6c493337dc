package dfsprune

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

// simsOf is the shared helper from internal/testutil.
var simsOf = testutil.Sims

// The cross-algorithm equivalence suite lives in internal/algo/hsp; this
// file covers DFS-Prune-specific behaviours.

func TestSEQMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 5; trial++ {
		ds := testutil.RandDataset(rng, 70, 3, 4, 100)
		q := testutil.RandQuery(rng, ds, 3, 30, query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10})
		q.Variant = query.SEQ
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		want := simsOf(brute.Search(ds, q))
		got, err := Search(context.Background(), ds, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gs := simsOf(got)
		if len(gs) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(gs), len(want))
		}
		for i := range gs {
			if math.Abs(gs[i]-want[i]) > 1e-9 {
				t.Errorf("trial %d rank %d: %g != %g", trial, i, gs[i], want[i])
			}
		}
	}
}

func TestNoDuplicateObjectsInResults(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	// a dataset with ONE category forces all dimensions to share candidates
	ds := testutil.RandDataset(rng, 40, 1, 4, 50)
	q := testutil.RandQuery(rng, ds, 3, 20, query.Params{K: 10, Alpha: 0.5, Beta: 9, GridD: 4, Xi: 10})
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	got, err := Search(context.Background(), ds, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("expected results")
	}
	for _, e := range got {
		for i := 0; i < len(e.Tuple); i++ {
			for j := i + 1; j < len(e.Tuple); j++ {
				if e.Tuple[i] == e.Tuple[j] {
					t.Errorf("tuple %v repeats an object", e.Tuple)
				}
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	ds := testutil.RandDataset(rng, 80, 3, 4, 100)
	q := testutil.RandQuery(rng, ds, 3, 25, query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10})
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	a, err := Search(context.Background(), ds, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(context.Background(), ds, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("result counts differ across runs")
	}
	for i := range a {
		if a[i].Sim != b[i].Sim {
			t.Errorf("rank %d sims differ", i)
		}
		for d := range a[i].Tuple {
			if a[i].Tuple[d] != b[i].Tuple[d] {
				t.Errorf("rank %d tuples differ", i)
			}
		}
	}
}

func TestCancellationMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	ds := testutil.RandDataset(rng, 4000, 2, 4, 100)
	q := testutil.RandQuery(rng, ds, 4, 80, query.Params{K: 5, Alpha: 0.5, Beta: 9, GridD: 4, Xi: 10})
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, ds, q, Options{}); err == nil {
		t.Error("cancelled context should abort")
	}
}
