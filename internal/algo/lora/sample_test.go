package lora

import (
	"math/rand"
	"slices"
	"testing"

	"spatialseq/internal/geo"
	"spatialseq/internal/grid"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
)

// sampleBuckets runs the streaming Point-Sample over pts/sims on a D x D
// grid and returns each cell's kept bucket, sorted as prepareInto sorts it.
func sampleBuckets(t *testing.T, g *grid.Grid, xi int, opt Options, pts partition.Points, sims []float64) [][]simil.Cand {
	t.Helper()
	s := &searcher{q: &query.Query{Params: query.Params{Xi: xi}}, opt: opt}
	buckets := make([][]simil.Cand, g.NumCells())
	s.heaps = make([][]ranked, g.NumCells())
	s.sample(buckets, g, 1, &pts, sims)
	for _, b := range buckets {
		simil.SortCandidates(b)
	}
	return buckets
}

// randomBucketInput draws n candidates at distinct positions, with
// heavily tied sims and coordinates inside [0, 10]^2.
func randomBucketInput(rng *rand.Rand, n int) (partition.Points, []float64) {
	var pts partition.Points
	sims := make([]float64, n)
	for i, pos := range rng.Perm(4 * n)[:n] {
		pts.Pos = append(pts.Pos, int32(pos))
		pts.X = append(pts.X, rng.Float64()*10)
		pts.Y = append(pts.Y, rng.Float64()*10)
		sims[i] = float64(rng.Intn(4)) / 4
	}
	return pts, sims
}

// permute returns pts/sims in a random order.
func permute(rng *rand.Rand, pts partition.Points, sims []float64) (partition.Points, []float64) {
	perm := rng.Perm(len(sims))
	var out partition.Points
	outSims := make([]float64, len(sims))
	for j, i := range perm {
		out.Pos = append(out.Pos, pts.Pos[i])
		out.X = append(out.X, pts.X[i])
		out.Y = append(out.Y, pts.Y[i])
		outSims[j] = sims[i]
	}
	return out, outSims
}

// TestStreamingSampleMatchesSortTruncate checks the bounded streaming
// selection against the definition of Point-Sample: bucket every
// candidate, sort each bucket with SortCandidates and keep its first xi.
func TestStreamingSampleMatchesSortTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g, err := grid.New(geo.Rect{MaxX: 10, MaxY: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		xi := rng.Intn(12) - 1 // includes xi <= 0: keep everything
		pts, sims := randomBucketInput(rng, n)
		got := sampleBuckets(t, g, xi, Options{}, pts, sims)

		want := make([][]simil.Cand, g.NumCells())
		for i, pos := range pts.Pos {
			cell := g.Cell(pts.Loc(i))
			want[cell] = append(want[cell], simil.Cand{Pos: pos, Sim: sims[i]})
		}
		for cell, b := range want {
			simil.SortCandidates(b)
			if xi > 0 && len(b) > xi {
				b = b[:xi]
			}
			if !slices.Equal(got[cell], b) {
				t.Fatalf("trial %d xi=%d cell %d: streamed %v, sort+truncate %v", trial, xi, cell, got[cell], b)
			}
		}
	}
}

// TestRandomSampleOrderIndependent checks that RandomSample keeps the
// same set under any permutation of its input, sized to xi per bucket.
func TestRandomSampleOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, err := grid.New(geo.Rect{MaxX: 10, MaxY: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{RandomSample: true, RandomSeed: 7}
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(300)
		xi := 1 + rng.Intn(8)
		pts, sims := randomBucketInput(rng, n)
		ref := sampleBuckets(t, g, xi, opt, pts, sims)
		counts := make([]int, g.NumCells())
		for i := range pts.Pos {
			counts[g.Cell(pts.Loc(i))]++
		}
		for cell, b := range ref {
			if len(b) != min(counts[cell], xi) {
				t.Fatalf("trial %d cell %d: kept %d of %d, xi %d", trial, cell, len(b), counts[cell], xi)
			}
		}
		for p := 0; p < 3; p++ {
			pp, ps := permute(rng, pts, sims)
			got := sampleBuckets(t, g, xi, opt, pp, ps)
			for cell := range ref {
				if !slices.Equal(got[cell], ref[cell]) {
					t.Fatalf("trial %d cell %d: permuted input kept %v, want %v", trial, cell, got[cell], ref[cell])
				}
			}
		}
	}
}
