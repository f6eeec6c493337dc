package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
)

// testCats is the number of categories testIndex cycles its points through.
const testCats = 4

// testIndex indexes pts with point i in category i % testCats.
func testIndex(pts []geo.Point) *Index {
	cats := make([]dataset.CategoryID, len(pts))
	for i := range cats {
		cats[i] = dataset.CategoryID(i % testCats)
	}
	return NewIndex(pts, cats)
}

// gatherAll returns the sorted positions of every point of the given
// categories that GatherAC collects for ss.
func gatherAll(ss *Subspace, ncat int) []int32 {
	var got Points
	for c := 0; c < ncat; c++ {
		ss.GatherAC(dataset.CategoryID(c), &got)
	}
	slices.Sort(got.Pos)
	return got.Pos
}

func randPoints(rng *rand.Rand, n int, extent float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	return pts
}

func TestEmptyIndex(t *testing.T) {
	ix := testIndex(nil)
	p, err := ix.Partition(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Subspaces) != 0 {
		t.Errorf("empty index produced %d subspaces", len(p.Subspaces))
	}
}

func TestInvalidRadius(t *testing.T) {
	ix := testIndex([]geo.Point{{X: 1, Y: 1}})
	for _, r := range []float64{0, -1, math.NaN()} {
		if _, err := ix.Partition(r); err == nil {
			t.Errorf("radius %g should be rejected", r)
		}
	}
}

func TestInfiniteRadiusSingleSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 100, 50)
	ix := testIndex(pts)
	p, err := ix.Partition(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Subspaces) != 1 {
		t.Fatalf("got %d subspaces, want 1", len(p.Subspaces))
	}
	ss := &p.Subspaces[0]
	if len(ss.CorePoints) != 100 {
		t.Errorf("core points = %d, want 100", len(ss.CorePoints))
	}
	if got := gatherAll(ss, testCats); len(got) != 100 {
		t.Errorf("gathered ac points = %d, want 100", len(got))
	}
	for c := 0; c < testCats; c++ {
		if run := ss.CoreRun(dataset.CategoryID(c)); run.Len() != 25 {
			t.Errorf("category %d run = %d points, want 25", c, run.Len())
		}
	}
	if ss.Core != ix.Bounds() || ss.AC != ix.Bounds() {
		t.Error("infinite radius must cover whole bounds")
	}
}

func TestCoresDisjointAndCovering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 10, 500, 3000} {
		pts := randPoints(rng, n, 100)
		ix := testIndex(pts)
		for _, radius := range []float64{5, 20, 80, 300} {
			p, err := ix.Partition(radius)
			if err != nil {
				t.Fatal(err)
			}
			// every point in exactly one core
			counts := make([]int, n)
			for _, ss := range p.Subspaces {
				for _, pos := range ss.CorePoints {
					counts[pos]++
				}
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d radius=%g: point %d in %d cores, want 1", n, radius, i, c)
				}
			}
			// CoreOf agrees with membership
			for i, pt := range pts {
				si := p.CoreOf(pt)
				if si < 0 {
					t.Fatalf("point %d in no core rect", i)
				}
				found := false
				for _, pos := range p.Subspaces[si].CorePoints {
					if int(pos) == i {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("point %d not listed in its core subspace", i)
				}
			}
		}
	}
}

func TestCoreDiagonalBelowRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 2000, 100)
	ix := testIndex(pts)
	radius := 12.0
	p, err := ix.Partition(radius)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Subspaces) < 2 {
		t.Fatalf("expected multiple subspaces, got %d", len(p.Subspaces))
	}
	for i, ss := range p.Subspaces {
		if d := ss.Core.Diagonal(); d >= radius {
			t.Errorf("subspace %d core diagonal %g >= radius %g", i, d, radius)
		}
	}
}

func TestACBandContainsNeighbors(t *testing.T) {
	// Every point within `radius` of a core point must be in the
	// ac-subspace point list — that is the property guaranteeing no valid
	// tuple is missed.
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 800, 60)
	ix := testIndex(pts)
	radius := 7.5
	p, err := ix.Partition(radius)
	if err != nil {
		t.Fatal(err)
	}
	for si := range p.Subspaces {
		ss := &p.Subspaces[si]
		inAC := make(map[int32]bool)
		for _, pos := range gatherAll(ss, testCats) {
			inAC[pos] = true
		}
		for _, cp := range ss.CorePoints {
			if !inAC[cp] {
				t.Fatalf("core point %d missing from its ac-subspace", cp)
			}
			for j, q := range pts {
				if pts[cp].Dist(q) <= radius && !inAC[int32(j)] {
					t.Fatalf("point %d within radius of core point %d but outside ac-subspace", j, cp)
				}
			}
		}
	}
}

func TestACWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 300, 40)
	ix := testIndex(pts)
	p, err := ix.Partition(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range p.Subspaces {
		if !p.Bounds.ContainsRect(ss.AC) {
			t.Errorf("ac-subspace %v exceeds bounds %v", ss.AC, p.Bounds)
		}
		if !ss.AC.ContainsRect(ss.Core) {
			t.Errorf("ac %v does not contain core %v", ss.AC, ss.Core)
		}
	}
}

func TestAllPointsCoincide(t *testing.T) {
	pts := make([]geo.Point, 20)
	for i := range pts {
		pts[i] = geo.Point{X: 5, Y: 5}
	}
	ix := testIndex(pts)
	p, err := ix.Partition(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Subspaces) != 1 {
		t.Fatalf("coincident points should form 1 subspace, got %d", len(p.Subspaces))
	}
	if len(p.Subspaces[0].CorePoints) != 20 {
		t.Errorf("core points = %d", len(p.Subspaces[0].CorePoints))
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 400, 50)
	ix := testIndex(pts)
	p, err := ix.Partition(8)
	if err != nil {
		t.Fatal(err)
	}
	var corePts, acPts int
	for si := range p.Subspaces {
		ss := &p.Subspaces[si]
		if d := ss.Core.Diagonal(); d >= 8 {
			t.Errorf("core diagonal = %g, must be < radius", d)
		}
		corePts += len(ss.CorePoints)
		// Runs partition CorePoints: categories ascending, positions
		// ascending within a run, inline coordinates matching.
		var runs int
		for c := 0; c < testCats; c++ {
			run := ss.CoreRun(dataset.CategoryID(c))
			runs += run.Len()
			for i, pos := range run.Pos {
				if int(pos)%testCats != c || run.Loc(i) != pts[pos] {
					t.Fatalf("subspace %d category %d run holds point %d at %v", si, c, pos, run.Loc(i))
				}
				if i > 0 && run.Pos[i-1] >= pos {
					t.Fatalf("subspace %d category %d run not ascending", si, c)
				}
			}
		}
		if runs != len(ss.CorePoints) {
			t.Errorf("subspace %d runs cover %d of %d core points", si, runs, len(ss.CorePoints))
		}
		acPts += len(gatherAll(ss, testCats))
	}
	if corePts != 400 {
		t.Errorf("total core points = %d, want 400", corePts)
	}
	if acPts < 400 {
		t.Errorf("total ac points = %d, must be >= core total", acPts)
	}
}

func TestPartitionCountGrowsAsRadiusShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 1000, 100)
	ix := testIndex(pts)
	var prev int
	for i, radius := range []float64{100, 25, 6} {
		p, err := ix.Partition(radius)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && len(p.Subspaces) < prev {
			t.Errorf("subspace count decreased when radius shrank: %d -> %d", prev, len(p.Subspaces))
		}
		prev = len(p.Subspaces)
	}
}

// TestColumnarProperty checks the columnar partition against brute force
// on random data with coincident points and points on split lines, over
// random radii including +Inf: core runs cover every point exactly once,
// and each subspace's gathered ac set per category equals the filter
// cat(i) == c && AC.Contains(loc(i)).
func TestColumnarProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(400)
		ncat := 1 + rng.Intn(6)
		extent := 1 + rng.Float64()*99
		pts := make([]geo.Point, n)
		cats := make([]dataset.CategoryID, n)
		for i := range pts {
			switch {
			case i < 2: // corners pin the bounds, so split lines are dyadic
				pts[i] = geo.Point{X: extent * float64(i), Y: extent * float64(i)}
			case rng.Intn(5) == 0: // coincident with an earlier point
				pts[i] = pts[rng.Intn(i)]
			case rng.Intn(4) == 0: // on the first split lines of [0, extent]
				pts[i] = geo.Point{X: extent * float64(rng.Intn(9)) / 8, Y: extent * float64(rng.Intn(9)) / 8}
			default:
				pts[i] = geo.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
			}
			cats[i] = dataset.CategoryID(rng.Intn(ncat))
		}
		ix := NewIndex(pts, cats)
		radius := math.Inf(1)
		if trial%5 != 0 {
			radius = extent * (0.01 + rng.Float64())
		}
		p, err := ix.Partition(radius)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, n)
		for si := range p.Subspaces {
			ss := &p.Subspaces[si]
			for c := 0; c < ncat; c++ {
				cat := dataset.CategoryID(c)
				run := ss.CoreRun(cat)
				for i, pos := range run.Pos {
					counts[pos]++
					if cats[pos] != cat || !ss.Core.Contains(pts[pos]) || run.Loc(i) != pts[pos] {
						t.Fatalf("trial %d: subspace %d run %d holds misplaced point %d", trial, si, c, pos)
					}
				}
				var got Points
				ss.GatherAC(cat, &got)
				for i, pos := range got.Pos {
					if got.Loc(i) != pts[pos] {
						t.Fatalf("trial %d: gathered point %d with wrong coordinates", trial, pos)
					}
				}
				slices.Sort(got.Pos)
				var want []int32
				for i := range pts {
					if cats[i] == cat && ss.AC.Contains(pts[i]) {
						want = append(want, int32(i))
					}
				}
				if !slices.Equal(got.Pos, want) {
					t.Fatalf("trial %d radius %g: subspace %d category %d gathered %v, want %v", trial, radius, si, c, got.Pos, want)
				}
			}
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("trial %d: point %d in %d core runs, want 1", trial, i, c)
			}
		}
	}
}
