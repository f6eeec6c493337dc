package lora

import (
	"context"
	"math/rand"
	"testing"

	"spatialseq/internal/query"
	"spatialseq/internal/stats"
	"spatialseq/internal/testutil"
)

// LORA's sampling buckets look up every candidate's attribute similarity
// once per overlapping subspace — the memo's bread and butter. The counters
// must reflect that without changing which tuples are found.
func TestMemoCountersAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(126))
	ds := testutil.RandDataset(rng, 300, 3, 4, 100)
	ix := buildIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	base, err := Search(context.Background(), ds, ix, q, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		st := &stats.Stats{}
		got, err := Search(context.Background(), ds, ix, q, Options{Parallelism: workers, Stats: st})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			// sequential LORA is deterministic: the memo must not change it
			if len(got) != len(base) {
				t.Fatalf("sequential result count changed: %d vs %d", len(got), len(base))
			}
			for i := range got {
				if got[i].Sim != base[i].Sim {
					t.Errorf("sequential sim %d changed: %v vs %v", i, got[i].Sim, base[i].Sim)
				}
			}
		}
		snap := st.Snapshot()
		if snap.Subspaces+snap.SubspacesSkipped+snap.SubspacesPruned <= 1 {
			t.Skip("single-subspace query: memo disabled by design")
		}
		if snap.AttrSimMemoMisses == 0 {
			t.Errorf("workers=%d: no memo misses reported with %d subspaces", workers, snap.Subspaces)
		}
		if snap.AttrSimMemoHits == 0 && snap.Candidates > 0 {
			t.Errorf("workers=%d: candidates bucketed but no memo hits reported", workers)
		}
	}
}

// End-to-end allocation profile of a full LORA search with reused scratch.
func BenchmarkSearchAllocs(b *testing.B) {
	rng := rand.New(rand.NewSource(127))
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
