// Package testutil builds small deterministic datasets and queries for the
// algorithm test suites. It lives outside the individual test files so the
// cross-algorithm equivalence tests, the property tests (internal/testkit)
// and the benchmarks all draw from the same seeded-generation path.
package testutil

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/topk"
)

// DatasetSpec parameterizes RandDatasetSpec. The zero values of the
// optional fields (CategorySkew, ZeroAttrFrac) reproduce RandDataset's
// stream exactly, so existing seeded fixtures stay stable.
type DatasetSpec struct {
	// N is the object count.
	N int
	// Categories is the number of interned categories ("cat-0"...).
	Categories int
	// AttrDim is the attribute vector length.
	AttrDim int
	// Extent is the side length of the square data space.
	Extent float64
	// CategorySkew > 0 draws categories Zipf-like: P(c) proportional to
	// (c+1)^-skew, so cat-0 dominates. 0 draws uniformly.
	CategorySkew float64
	// ZeroAttrFrac is the probability that an object gets an all-zero
	// attribute vector — the zero-norm corner the cosine conventions
	// (vectormath.Cos) and the tie-break contract must survive.
	ZeroAttrFrac float64
}

// RandDataset builds a dataset of n objects spread over extent x extent,
// with the given number of categories and attribute dimensions. Points are
// lightly clustered (half the objects snap near one of sqrt(n) anchors) so
// grids and partitions see realistic density variation.
func RandDataset(rng *rand.Rand, n, categories, attrDim int, extent float64) *dataset.Dataset {
	return RandDatasetSpec(rng, DatasetSpec{N: n, Categories: categories, AttrDim: attrDim, Extent: extent})
}

// RandDatasetSpec is RandDataset with category skew and zero-attribute
// controls. With both extras at zero it consumes the rng stream exactly as
// RandDataset does.
func RandDatasetSpec(rng *rand.Rand, spec DatasetSpec) *dataset.Dataset {
	b := &dataset.Builder{}
	for c := 0; c < spec.Categories; c++ {
		b.Category(fmt.Sprintf("cat-%d", c))
	}
	var catWeights []float64
	if spec.CategorySkew > 0 {
		catWeights = make([]float64, spec.Categories)
		var total float64
		for c := range catWeights {
			total += math.Pow(float64(c+1), -spec.CategorySkew)
			catWeights[c] = total
		}
		for c := range catWeights {
			catWeights[c] /= total
		}
	}
	anchors := make([]geo.Point, isqrt(spec.N)+1)
	for i := range anchors {
		anchors[i] = geo.Point{X: rng.Float64() * spec.Extent, Y: rng.Float64() * spec.Extent}
	}
	for i := 0; i < spec.N; i++ {
		var loc geo.Point
		if rng.Intn(2) == 0 {
			a := anchors[rng.Intn(len(anchors))]
			loc = geo.Point{
				X: clamp(a.X+rng.NormFloat64()*spec.Extent/40, 0, spec.Extent),
				Y: clamp(a.Y+rng.NormFloat64()*spec.Extent/40, 0, spec.Extent),
			}
		} else {
			loc = geo.Point{X: rng.Float64() * spec.Extent, Y: rng.Float64() * spec.Extent}
		}
		attr := make([]float64, spec.AttrDim)
		if spec.ZeroAttrFrac <= 0 || rng.Float64() >= spec.ZeroAttrFrac {
			for d := range attr {
				attr[d] = 0.05 + 0.95*rng.Float64()
			}
		}
		b.Add(dataset.Object{
			ID:       int64(i),
			Loc:      loc,
			Category: drawCategory(rng, spec.Categories, catWeights),
			Attr:     attr,
		})
	}
	ds, err := b.Build()
	if err != nil {
		//lint:ignore panicfree test-support package: known-good configs, and tests want the crash
		panic(err)
	}
	return ds
}

func drawCategory(rng *rand.Rand, categories int, cumWeights []float64) dataset.CategoryID {
	if cumWeights == nil {
		return dataset.CategoryID(rng.Intn(categories))
	}
	u := rng.Float64()
	for c, w := range cumWeights {
		if u < w {
			return dataset.CategoryID(c)
		}
	}
	return dataset.CategoryID(categories - 1)
}

// RandQuery draws a CSEQ query with tuple size m whose example locations
// sit within a window of roughly `scale` extent, so the example norm (and
// with it the partitioning radius) is controlled.
func RandQuery(rng *rand.Rand, ds *dataset.Dataset, m int, scale float64, params query.Params) *query.Query {
	bounds := ds.Bounds()
	cx := bounds.MinX + rng.Float64()*bounds.Width()
	cy := bounds.MinY + rng.Float64()*bounds.Height()
	ex := query.Example{
		Categories: make([]dataset.CategoryID, m),
		Locations:  make([]geo.Point, m),
		Attrs:      make([][]float64, m),
	}
	for d := 0; d < m; d++ {
		ex.Categories[d] = dataset.CategoryID(rng.Intn(ds.NumCategories()))
		ex.Locations[d] = geo.Point{
			X: cx + (rng.Float64()-0.5)*scale,
			Y: cy + (rng.Float64()-0.5)*scale,
		}
		attr := make([]float64, ds.AttrDim())
		for i := range attr {
			attr[i] = 0.05 + 0.95*rng.Float64()
		}
		ex.Attrs[d] = attr
	}
	return &query.Query{Variant: query.CSEQ, Example: ex, Params: params}
}

// PinDims turns q into a CSEQ-FP query by pinning each listed dimension to
// a random dataset object of the matching category. It reports false (and
// leaves q untouched) when some listed dimension's category has no
// objects.
func PinDims(rng *rand.Rand, ds *dataset.Dataset, q *query.Query, dims ...int) bool {
	fixed := make([]query.FixedPoint, 0, len(dims))
	for _, d := range dims {
		cands := ds.CategoryObjects(q.Example.Categories[d])
		if len(cands) == 0 {
			return false
		}
		fixed = append(fixed, query.FixedPoint{Dim: d, Obj: cands[rng.Intn(len(cands))]})
	}
	q.Example.Fixed = fixed
	q.Variant = query.CSEQFP
	return true
}

// BuildIndex builds the partition index over the dataset's locations and
// categories — the same construction core.NewEngine performs, shared here
// so algorithm tests do not each reimplement it.
func BuildIndex(ds *dataset.Dataset) *partition.Index {
	pts := make([]geo.Point, ds.Len())
	cats := make([]dataset.CategoryID, ds.Len())
	for i := range pts {
		pts[i], cats[i] = ds.Loc(i), ds.Category(i)
	}
	return partition.NewIndex(pts, cats)
}

// BoundCase is one query of the subspace-bound property tests.
type BoundCase struct {
	Name string
	DS   *dataset.Dataset
	Ix   *partition.Index
	Q    *query.Query
}

// BoundCases draws small random datasets and, over each, the queries the
// subspace bound must hold for: CSEQ, and CSEQ-FP with dimension 0,
// dimension 1 or both pinned, at k in {1, 5} and alpha in {0.3, 0.5, 1}.
// Queries whose pinned category is empty are left out.
func BoundCases(seed int64, datasets int) []BoundCase {
	rng := rand.New(rand.NewSource(seed))
	var cases []BoundCase
	for i := 0; i < datasets; i++ {
		ds := RandDataset(rng, 150+rng.Intn(250), 3, 4, 100)
		ix := BuildIndex(ds)
		for _, pins := range [][]int{nil, {0}, {1}, {0, 1}} {
			for _, k := range []int{1, 5} {
				for _, alpha := range []float64{0.3, 0.5, 1} {
					params := query.Params{K: k, Alpha: alpha, Beta: 1.5, GridD: 4, Xi: 3}
					q := RandQuery(rng, ds, 3, 25, params)
					if len(pins) > 0 && !PinDims(rng, ds, q, pins...) {
						continue
					}
					if q.Validate(ds) != nil {
						continue
					}
					name := fmt.Sprintf("ds%d/pins%v/k%d/alpha%g", i, pins, k, alpha)
					cases = append(cases, BoundCase{Name: name, DS: ds, Ix: ix, Q: q})
				}
			}
		}
	}
	return cases
}

// CancelAfter is a context whose Err reports context.Canceled from its
// N-th call on and whose Done never fires, so a test can cancel a search
// at a chosen Err poll. Calls counts the polls; Err must be called from
// one goroutine.
type CancelAfter struct {
	context.Context
	N, Calls int
}

// Err counts the poll and reports context.Canceled from the N-th on.
func (c *CancelAfter) Err() error {
	c.Calls++
	if c.Calls >= c.N {
		return context.Canceled
	}
	return nil
}

// Sims extracts the similarity series of a result list, best-first.
func Sims(entries []topk.Entry) []float64 {
	out := make([]float64, len(entries))
	for i, e := range entries {
		out[i] = e.Sim
	}
	return out
}

// SimsEqual reports whether two similarity series agree elementwise within
// tol.
func SimsEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}
