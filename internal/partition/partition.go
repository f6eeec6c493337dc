// Package partition implements the hierarchical space partitioning scheme
// of HSP and LORA (paper Section III-A).
//
// The data space is split recursively from the middle of the horizontal and
// vertical dimensions, alternating per level, until a subspace is empty or
// its diagonal is smaller than the query radius beta*||V_t*||. Non-empty
// leaves are the *core subspaces*: disjoint, jointly covering every point.
// Each core subspace is surrounded by a band-shaped *auxiliary subspace* of
// width beta*||V_t*||; the union (the *ac-subspace*) is guaranteed to
// contain every CSEQ-valid tuple whose first point lies in the core
// (no valid tuple has two points farther apart than beta*||V_t*||).
//
// Lemma 1 discipline: algorithms enumerate a tuple only inside the
// ac-subspace whose core contains the tuple's first point, so every
// candidate is enumerated exactly once across all subspaces.
//
// The partition is columnar. Every point is stored exactly once, in its
// core subspace, grouped by category (one contiguous run per category)
// with its coordinates inline. An ac-subspace is not materialised: each
// Subspace records the cores whose rectangle meets its AC (found by
// descending the split tree), and GatherAC collects one category's
// ac-subspace points by scanning only those cores' runs of that category.
// The expensive attribute similarity then runs only on points that
// already passed the cheap category and position predicates.
package partition

import (
	"fmt"
	"math"
	"slices"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/rtree"
)

// Points is a columnar list of dataset points: positions with their
// coordinates inline, index-aligned.
type Points struct {
	Pos  []int32
	X, Y []float64
}

// Len returns the number of points.
func (ps *Points) Len() int { return len(ps.Pos) }

// Loc returns the location of point i.
func (ps *Points) Loc(i int) geo.Point { return geo.Point{X: ps.X[i], Y: ps.Y[i]} }

// Reset empties the list, keeping its storage.
func (ps *Points) Reset() {
	ps.Pos, ps.X, ps.Y = ps.Pos[:0], ps.X[:0], ps.Y[:0]
}

// Subspace is one core subspace plus its surrounding auxiliary band.
type Subspace struct {
	// Core is the core subspace rectangle. Cores of different Subspaces
	// are disjoint and their union covers the data bounds.
	Core geo.Rect
	// AC is the ac-subspace: Core inflated by the band width, clipped to
	// the data bounds (points only exist inside the bounds, so clipping
	// loses no candidates).
	AC geo.Rect
	// CorePoints are dataset positions of points inside Core, grouped
	// by category (categories ascending, positions ascending within a
	// category). It is a view into the partition's storage.
	CorePoints []int32

	index   int                  // position in Partition.Subspaces
	xs, ys  []float64            // coordinates of CorePoints
	runCats []dataset.CategoryID // distinct categories of CorePoints, ascending
	runEnd  []int32              // runEnd[i]: end offset of runCats[i]'s run
	nbrs    []*Subspace          // subspaces whose Core meets AC (self included)
}

// Index returns the subspace's position in its Partition's Subspaces.
func (ss *Subspace) Index() int { return ss.index }

// Neighbours returns the subspaces whose core meets AC, the subspace
// itself included: the only cores GatherAC reads. The slice is a view
// into the partition's storage that callers must not modify.
func (ss *Subspace) Neighbours() []*Subspace { return ss.nbrs }

// CoreRun returns the core points of category cat, a view into the
// partition's storage that callers must not modify.
func (ss *Subspace) CoreRun(cat dataset.CategoryID) Points {
	i, ok := slices.BinarySearch(ss.runCats, cat)
	if !ok {
		return Points{}
	}
	lo := int32(0)
	if i > 0 {
		lo = ss.runEnd[i-1]
	}
	hi := ss.runEnd[i]
	return Points{Pos: ss.CorePoints[lo:hi], X: ss.xs[lo:hi], Y: ss.ys[lo:hi]}
}

// GatherAC appends to dst every point of category cat inside AC (closed
// bounds), scanning only the category's runs in the cores that meet AC.
// Every point lies in exactly one core, so each is gathered once.
//
//seq:hotpath
func (ss *Subspace) GatherAC(cat dataset.CategoryID, dst *Points) {
	ac := ss.AC
	for _, nb := range ss.nbrs {
		run := nb.CoreRun(cat)
		if ac.ContainsRect(nb.Core) {
			//lint:ignore hotpathalloc appends into the caller's reused gather buffer; capacity amortises across subspaces
			dst.Pos = append(dst.Pos, run.Pos...)
			//lint:ignore hotpathalloc appends into the caller's reused gather buffer; capacity amortises across subspaces
			dst.X = append(dst.X, run.X...)
			//lint:ignore hotpathalloc appends into the caller's reused gather buffer; capacity amortises across subspaces
			dst.Y = append(dst.Y, run.Y...)
			continue
		}
		for i, x := range run.X {
			y := run.Y[i]
			if x >= ac.MinX && x <= ac.MaxX && y >= ac.MinY && y <= ac.MaxY {
				//lint:ignore hotpathalloc appends into the caller's reused gather buffer; capacity amortises across subspaces
				dst.Pos = append(dst.Pos, run.Pos[i])
				//lint:ignore hotpathalloc appends into the caller's reused gather buffer; capacity amortises across subspaces
				dst.X = append(dst.X, x)
				//lint:ignore hotpathalloc appends into the caller's reused gather buffer; capacity amortises across subspaces
				dst.Y = append(dst.Y, y)
			}
		}
	}
}

// Partition is the result of partitioning one dataset for one query radius.
type Partition struct {
	Subspaces []Subspace
	// Radius is the band width / diagonal threshold beta*||V_t*|| used.
	Radius float64
	// Bounds is the partitioned data space.
	Bounds geo.Rect
}

// Index wraps the per-dataset immutable state needed to partition: the
// point locations and categories and an R-tree over the locations. Build
// it once per dataset and reuse it across queries (the partition itself
// depends on the query radius, the index does not).
type Index struct {
	pts  []geo.Point
	cats []dataset.CategoryID
	// byCat lists every position ordered by (category, position); a
	// partition regroups it per core with one stable counting pass.
	byCat []int32
	tree  *rtree.Tree
	cache partitionCache
}

// NewIndex builds the partitioning index over the given point locations
// and categories: pts[i] and cats[i] must be the location and category of
// dataset object i, and categories are dense dataset IDs (non-negative).
func NewIndex(pts []geo.Point, cats []dataset.CategoryID) *Index {
	if len(cats) != len(pts) {
		//lint:ignore panicfree constructor contract: the caller passes one category per point
		panic(fmt.Sprintf("partition: %d categories for %d points", len(cats), len(pts)))
	}
	var ncat int
	for _, c := range cats {
		if int(c) >= ncat {
			ncat = int(c) + 1
		}
	}
	// Counting sort by category; positions stay ascending within one.
	start := make([]int32, ncat+1)
	for _, c := range cats {
		start[c+1]++
	}
	for c := 1; c <= ncat; c++ {
		start[c] += start[c-1]
	}
	byCat := make([]int32, len(pts))
	for i, c := range cats {
		byCat[start[c]] = int32(i)
		start[c]++
	}
	return &Index{pts: pts, cats: cats, byCat: byCat, tree: rtree.New(pts, nil)}
}

// NumPoints returns the number of indexed points.
func (ix *Index) NumPoints() int { return len(ix.pts) }

// Bounds returns the bounding rectangle of the indexed points.
func (ix *Index) Bounds() geo.Rect { return ix.tree.Bounds() }

// Tree exposes the underlying R-tree for callers that need raw range
// queries (e.g. nearest-neighbour lookups).
func (ix *Index) Tree() *rtree.Tree { return ix.tree }

// splitNode is one node of the midpoint-split tree: an internal node
// with up to two non-empty children, or a leaf naming its subspace.
type splitNode struct {
	rect        geo.Rect
	left, right int32 // child node indexes, -1 when that half is empty
	leaf        int32 // subspace index for leaves, -1 for internal nodes
}

// Partition divides the data space for the query radius
// radius = beta*||V_t*||. With radius = +Inf (the SEQ relaxation) the whole
// space is a single core subspace with an empty auxiliary band. A zero or
// negative radius is rejected: it would admit no tuple with two distinct
// locations, and the split recursion below would not terminate.
func (ix *Index) Partition(radius float64) (*Partition, error) {
	if len(ix.pts) == 0 {
		return &Partition{Radius: radius, Bounds: geo.EmptyRect()}, nil
	}
	if math.IsNaN(radius) || radius <= 0 {
		return nil, fmt.Errorf("partition: radius must be positive, got %g", radius)
	}
	bounds := ix.tree.Bounds()
	p := &Partition{Radius: radius, Bounds: bounds}
	if math.IsInf(radius, 1) {
		p.Subspaces = []Subspace{{Core: bounds, AC: bounds, CorePoints: ix.byCat}}
		ix.fill(p, []int32{0, int32(len(ix.pts))})
		p.Subspaces[0].nbrs = []*Subspace{&p.Subspaces[0]}
		return p, nil
	}
	// The split recursion redistributes this positions array in place, so
	// each leaf's points are one contiguous range of it, in leaf order.
	positions := make([]int32, len(ix.pts))
	for i := range positions {
		positions[i] = int32(i)
	}
	var nodes []splitNode
	ends := []int32{0}
	root := ix.split(positions, bounds, 0, radius, p, &nodes, &ends)

	// Regroup each leaf's range by (category, position): scatter the
	// category-ordered positions into their leaf's range in one pass.
	leafOf := make([]int32, len(ix.pts))
	for l := range p.Subspaces {
		for _, pos := range positions[ends[l]:ends[l+1]] {
			leafOf[pos] = int32(l)
		}
	}
	cursor := slices.Clone(ends[:len(ends)-1])
	for _, pos := range ix.byCat {
		l := leafOf[pos]
		positions[cursor[l]] = pos
		cursor[l]++
	}
	for l := range p.Subspaces {
		p.Subspaces[l].CorePoints = positions[ends[l]:ends[l+1]]
	}
	ix.fill(p, ends)

	var nbrs []*Subspace
	offs := make([]int, len(p.Subspaces)+1)
	for l := range p.Subspaces {
		nbrs = neighbours(nodes, root, p.Subspaces[l].AC, p, nbrs)
		offs[l+1] = len(nbrs)
	}
	for l := range p.Subspaces {
		p.Subspaces[l].nbrs = nbrs[offs[l]:offs[l+1]:offs[l+1]]
	}
	return p, nil
}

// fill derives each subspace's inline coordinates and category runs from
// its CorePoints, which occupy [ends[l], ends[l+1]) of one shared range.
func (ix *Index) fill(p *Partition, ends []int32) {
	n := int(ends[len(ends)-1])
	xs := make([]float64, n)
	ys := make([]float64, n)
	var runCats []dataset.CategoryID
	var runEnd []int32
	runOff := make([]int, len(p.Subspaces)+1)
	for l := range p.Subspaces {
		ss := &p.Subspaces[l]
		lo, hi := int(ends[l]), int(ends[l+1])
		ss.xs, ss.ys = xs[lo:hi:hi], ys[lo:hi:hi]
		for i, pos := range ss.CorePoints {
			pt := ix.pts[pos]
			ss.xs[i], ss.ys[i] = pt.X, pt.Y
			c := ix.cats[pos]
			if i > 0 && c == runCats[len(runCats)-1] {
				runEnd[len(runEnd)-1]++
				continue
			}
			runCats = append(runCats, c)
			runEnd = append(runEnd, int32(i+1))
		}
		runOff[l+1] = len(runCats)
	}
	for l := range p.Subspaces {
		lo, hi := runOff[l], runOff[l+1]
		p.Subspaces[l].runCats = runCats[lo:hi:hi]
		p.Subspaces[l].runEnd = runEnd[lo:hi:hi]
	}
}

// split recursively divides rect, alternating the split axis per level,
// collecting non-empty leaves whose diagonal is below the radius, and
// records the split tree in nodes. positions must hold exactly the
// points inside rect and is reordered in place so each half receives a
// contiguous sub-slice; ends accumulates the end offset of each leaf's
// range. It returns the node index of rect, or -1 when rect is empty.
func (ix *Index) split(positions []int32, rect geo.Rect, level int, radius float64, p *Partition, nodes *[]splitNode, ends *[]int32) int32 {
	if len(positions) == 0 {
		return -1
	}
	id := int32(len(*nodes))
	*nodes = append(*nodes, splitNode{rect: rect, left: -1, right: -1, leaf: -1})
	if rect.Diagonal() < radius || degenerate(rect) {
		(*nodes)[id].leaf = int32(len(p.Subspaces))
		p.Subspaces = append(p.Subspaces, Subspace{
			Core:  rect,
			AC:    rect.Inflate(radius).Intersect(p.Bounds),
			index: len(p.Subspaces),
		})
		*ends = append(*ends, (*ends)[len(*ends)-1]+int32(len(positions)))
		return id
	}
	var left, right geo.Rect
	var inLeft func(geo.Point) bool
	if level%2 == 0 { // split the horizontal dimension (vertical cut line)
		mid := (rect.MinX + rect.MaxX) / 2
		left = geo.Rect{MinX: rect.MinX, MinY: rect.MinY, MaxX: mid, MaxY: rect.MaxY}
		right = geo.Rect{MinX: math.Nextafter(mid, math.Inf(1)), MinY: rect.MinY, MaxX: rect.MaxX, MaxY: rect.MaxY}
		inLeft = func(pt geo.Point) bool { return pt.X <= mid }
	} else { // split the vertical dimension (horizontal cut line)
		mid := (rect.MinY + rect.MaxY) / 2
		left = geo.Rect{MinX: rect.MinX, MinY: rect.MinY, MaxX: rect.MaxX, MaxY: mid}
		right = geo.Rect{MinX: rect.MinX, MinY: math.Nextafter(mid, math.Inf(1)), MaxX: rect.MaxX, MaxY: rect.MaxY}
		inLeft = func(pt geo.Point) bool { return pt.Y <= mid }
	}
	// Hoare-style partition of positions by side of the cut line.
	lo, hi := 0, len(positions)
	for lo < hi {
		if inLeft(ix.pts[positions[lo]]) {
			lo++
		} else {
			hi--
			positions[lo], positions[hi] = positions[hi], positions[lo]
		}
	}
	l := ix.split(positions[:lo], left, level+1, radius, p, nodes, ends)
	r := ix.split(positions[lo:], right, level+1, radius, p, nodes, ends)
	(*nodes)[id].left, (*nodes)[id].right = l, r
	return id
}

// neighbours appends to dst the subspaces whose core meets rect, found
// by descending the split tree from node n (in leaf order).
func neighbours(nodes []splitNode, n int32, rect geo.Rect, p *Partition, dst []*Subspace) []*Subspace {
	if n < 0 || !rect.Intersects(nodes[n].rect) {
		return dst
	}
	if l := nodes[n].leaf; l >= 0 {
		return append(dst, &p.Subspaces[l])
	}
	dst = neighbours(nodes, nodes[n].left, rect, p, dst)
	return neighbours(nodes, nodes[n].right, rect, p, dst)
}

// degenerate guards against rectangles too small to split further (all
// points coincide, or floating-point midpoints stopped making progress)
// whose diagonal still exceeds the radius only in pathological inputs.
func degenerate(rect geo.Rect) bool {
	midX := (rect.MinX + rect.MaxX) / 2
	midY := (rect.MinY + rect.MaxY) / 2
	return (midX <= rect.MinX || midX >= rect.MaxX) && (midY <= rect.MinY || midY >= rect.MaxY)
}

// CoreOf returns the index of the subspace whose core contains p, or -1.
// Cores are disjoint so at most one matches.
func (p *Partition) CoreOf(pt geo.Point) int {
	for i := range p.Subspaces {
		if p.Subspaces[i].Core.Contains(pt) {
			return i
		}
	}
	return -1
}
