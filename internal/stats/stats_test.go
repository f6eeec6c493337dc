package stats

import "testing"

func TestSnapshotAdd(t *testing.T) {
	var s Stats
	s.AddSnapshot(Snapshot{Subspaces: 2, Candidates: 10, Tuples: 3})
	a := s.Snapshot()
	var s2 Stats
	s2.AddSnapshot(Snapshot{Subspaces: 1, Candidates: 5, RankPops: 7})
	b := s2.Snapshot()

	sum := a.Add(b)
	if sum.Subspaces != 3 || sum.Candidates != 15 || sum.Tuples != 3 || sum.RankPops != 7 {
		t.Errorf("Add = %+v", sum)
	}
	// Add must cover every counter Each exposes: the field-wise sum of a
	// snapshot with itself doubles every named value — except the
	// documented max-semantics counter, which Add keeps unchanged.
	doubled := a.Add(a)
	i := 0
	av := make(map[string]int64)
	a.Each(func(name string, v int64) { av[name] = v })
	doubled.Each(func(name string, v int64) {
		want := 2 * av[name]
		if name == "subspace_candidates_max" {
			want = av[name]
		}
		if v != want {
			t.Errorf("counter %s: Add(a,a) = %d, want %d", name, v, want)
		}
		i++
	})
	if i != 14 {
		t.Errorf("Each visited %d counters, want 14", i)
	}
}

// TestAddSnapshot: AddSnapshot must agree with Snapshot.Add on every
// counter — sums for the work counters, max for SubspaceCandidatesMax —
// so a unit's batch lands identically in the query totals and on its
// span.
func TestAddSnapshot(t *testing.T) {
	var units []Snapshot
	for i := int64(1); i <= 3; i++ {
		d := Snapshot{
			Subspaces: i, SubspacesSkipped: i + 1, Candidates: i + 2,
			PrunedPrefixes: i + 3, Tuples: i + 4, Offered: i + 5,
			CellTuples: i + 6, PrunedCellPrefixes: i + 7, RankPops: i + 8,
			SampledOut: i + 9, AttrSimMemoHits: i + 10, AttrSimMemoMisses: i + 11,
			SubspacesPruned: i + 12, SubspaceCandidatesMax: 10 * (i % 3),
		}
		units = append(units, d)
	}
	var s Stats
	var want Snapshot
	for _, d := range units {
		s.AddSnapshot(d)
		want = want.Add(d)
	}
	if got := s.Snapshot(); got != want {
		t.Errorf("AddSnapshot totals = %+v, want %+v", got, want)
	}
}

func TestSubspaceCandidatesMax(t *testing.T) {
	var s Stats
	s.AddSnapshot(Snapshot{SubspaceCandidatesMax: 10})
	s.AddSnapshot(Snapshot{SubspaceCandidatesMax: 4}) // lower value must not win
	s.AddSnapshot(Snapshot{SubspaceCandidatesMax: 25})
	if got := s.Snapshot().SubspaceCandidatesMax; got != 25 {
		t.Errorf("SubspaceCandidatesMax = %d, want 25", got)
	}
	var nilStats *Stats
	nilStats.AddSnapshot(Snapshot{SubspaceCandidatesMax: 99}) // nil-safe no-op
	a := Snapshot{SubspaceCandidatesMax: 7}
	b := Snapshot{SubspaceCandidatesMax: 12}
	if got := a.Add(b).SubspaceCandidatesMax; got != 12 {
		t.Errorf("Add max = %d, want 12 (max, not sum)", got)
	}
	if got := b.Add(a).SubspaceCandidatesMax; got != 12 {
		t.Errorf("Add max (reversed) = %d, want 12", got)
	}
}

func TestNilStatsSafe(t *testing.T) {
	var s *Stats
	s.AddSnapshot(Snapshot{Subspaces: 1, Offered: 1})
	if snap := s.Snapshot(); snap != (Snapshot{}) {
		t.Errorf("nil Stats snapshot = %+v, want zero", snap)
	}
}
