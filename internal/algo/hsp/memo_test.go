package hsp

import (
	"context"
	"math/rand"
	"testing"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/query"
	"spatialseq/internal/stats"
	"spatialseq/internal/testutil"
)

// The memo must be invisible in the results (bit-identical AttrSim values)
// and visible in the counters: at every worker count the fill pass
// reports its cosines as misses and the workers' lookups as hits.
func TestMemoCountersAndExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	ds := testutil.RandDataset(rng, 300, 3, 4, 100)
	ix := buildIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	want := simsOf(brute.Search(ds, q))

	for _, workers := range []int{1, 4} {
		st := &stats.Stats{}
		got, err := Search(context.Background(), ds, ix, q, Options{Parallelism: workers, Stats: st})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !simsEqual(simsOf(got), want, 1e-9) {
			t.Errorf("workers=%d: memoized sims %v != brute %v", workers, simsOf(got), want)
		}
		snap := st.Snapshot()
		if snap.Subspaces+snap.SubspacesSkipped+snap.SubspacesPruned <= 1 {
			t.Skip("single-subspace query: memo disabled by design")
		}
		if snap.AttrSimMemoMisses == 0 {
			t.Errorf("workers=%d: no memo misses reported with %d subspaces", workers, snap.Subspaces)
		}
		if snap.AttrSimMemoHits == 0 && snap.Candidates > 0 {
			t.Errorf("workers=%d: candidates enumerated but no memo hits reported", workers)
		}
	}
}

// End-to-end allocation profile of a full HSP search with reused scratch.
func BenchmarkSearchAllocs(b *testing.B) {
	rng := rand.New(rand.NewSource(125))
	ds := testutil.RandDataset(rng, 1000, 3, 4, 100)
	ix := buildIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(context.Background(), ds, ix, q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
