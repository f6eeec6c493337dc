// Package rankgraph implements the rank-representation graph of LORA's
// point-tuple enumeration (paper Section III-C2, Lemma 2, Algorithm 5).
//
// Given m lists of scores, each sorted in descending order, every
// combination (one index per list) is a graph node identified by its rank
// vector; [0,0,...,0] is the root r0. A node's out-neighbours increment a
// single rank by one. Lemma 2 shows that enumerating nodes by ascending
// shortest-path distance from r0 — with edge weight score(t) − score(v) —
// is the same as enumerating combinations by descending total score.
//
// Enumerator realises that traversal as a lazy best-first search: Next
// yields rank vectors in non-increasing total-score order, visiting each
// combination exactly once, and materialises only the frontier (O(pops*m)
// memory rather than the full product space).
//
// No visited set is needed. Every node other than r0 has one canonical
// parent: the node with its last non-zero rank decremented. A popped node
// therefore expands only along the dimensions at or after the one its own
// parent bumped, which pushes each combination exactly once, from a
// parent whose total is no lower (the lists descend), so best-first order
// is kept.
//
// The enumerator sits on LORA's innermost hot path (one instance per cell
// tuple), so it is engineered to amortise allocations: rank-vector
// storage is recycled through a freelist, and Reset reuses all internal
// state for the next cell tuple.
package rankgraph

// Enumerator yields index combinations over m descending score lists in
// non-increasing total-score order.
type Enumerator struct {
	lists [][]float64
	pq    []node
	ranks []int32 // scratch returned by Next; callers must not retain
	free  [][]int32

	closed bool
}

type node struct {
	ranks []int32
	total float64
	// from is the dimension the canonical parent bumped (0 for the
	// root); the node expands only along dimensions >= from.
	from int32
}

// New returns an enumerator over the given descending score lists. Any
// empty list makes the product space empty (Next returns false
// immediately). Lists are not copied; callers must not mutate them while
// enumerating. New panics if a list is not sorted descending — that would
// silently break the enumeration order invariant.
func New(lists [][]float64) *Enumerator {
	e := &Enumerator{}
	e.Reset(lists)
	return e
}

// Reset re-arms the enumerator over a new set of lists, reusing all
// internal storage. Semantics match New.
func (e *Enumerator) Reset(lists [][]float64) {
	e.lists = lists
	// reclaim the leftover frontier's rank storage before dropping it
	for _, n := range e.pq {
		//lint:ignore hotpathalloc freelist recycle; bounded by the frontier and reused across Resets
		e.free = append(e.free, n.ranks)
	}
	e.pq = e.pq[:0]
	e.closed = false

	for _, l := range lists {
		if len(l) == 0 {
			e.closed = true
			return
		}
		for i := 1; i < len(l); i++ {
			if l[i] > l[i-1] {
				//lint:ignore panicfree documented New/Reset contract: an unsorted list is a caller bug that would silently corrupt enumeration order
				panic("rankgraph: score list not sorted descending")
			}
		}
	}

	root := e.newRanks(len(lists))
	for i := range root {
		root[i] = 0
	}
	var total float64
	for _, l := range lists {
		total += l[0]
	}
	e.push(root, total)
	if cap(e.ranks) < len(lists) {
		//lint:ignore hotpathalloc grow-once scratch; reused across Resets
		e.ranks = make([]int32, len(lists))
	}
	e.ranks = e.ranks[:len(lists)]
}

// Next returns the next combination and its total score. The returned
// slice is reused between calls; copy it to retain it. ok is false when
// the space is exhausted.
func (e *Enumerator) Next() (ranks []int32, total float64, ok bool) {
	if e.closed || len(e.pq) == 0 {
		return nil, 0, false
	}
	n := e.pop()
	copy(e.ranks, n.ranks)
	// Expand the out-neighbours this node is the canonical parent of:
	// increment one rank by one, at dimension from or later.
	for d := int(n.from); d < len(n.ranks); d++ {
		r := n.ranks[d] + 1
		if int(r) >= len(e.lists[d]) {
			continue
		}
		child := e.newRanks(len(n.ranks))
		copy(child, n.ranks)
		child[d] = r
		childTotal := n.total - e.lists[d][r-1] + e.lists[d][r]
		//lint:ignore hotpathalloc frontier append; pq storage is reused across Resets, growth amortises out
		e.pq = append(e.pq, node{ranks: child, total: childTotal, from: int32(d)})
		e.up(len(e.pq) - 1)
	}
	//lint:ignore hotpathalloc freelist recycle; bounded by the frontier and reused across Resets
	e.free = append(e.free, n.ranks)
	return e.ranks, n.total, true
}

// push inserts the root node.
func (e *Enumerator) push(ranks []int32, total float64) {
	//lint:ignore hotpathalloc root push, once per Reset; pq storage is reused
	e.pq = append(e.pq, node{ranks: ranks, total: total})
	e.up(len(e.pq) - 1)
}

func (e *Enumerator) newRanks(m int) []int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		if cap(s) >= m {
			return s[:m]
		}
	}
	//lint:ignore hotpathalloc freelist miss; rank storage recycles, so makes amortise to zero per Next
	return make([]int32, m)
}

// pop removes and returns the max-total node.
func (e *Enumerator) pop() node {
	top := e.pq[0]
	last := len(e.pq) - 1
	e.pq[0] = e.pq[last]
	e.pq = e.pq[:last]
	if last > 0 {
		e.down(0)
	}
	return top
}

// up and down maintain a max-heap on node.total.
func (e *Enumerator) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if e.pq[parent].total >= e.pq[i].total {
			break
		}
		e.pq[parent], e.pq[i] = e.pq[i], e.pq[parent]
		i = parent
	}
}

func (e *Enumerator) down(i int) {
	n := len(e.pq)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && e.pq[l].total > e.pq[largest].total {
			largest = l
		}
		if r < n && e.pq[r].total > e.pq[largest].total {
			largest = r
		}
		if largest == i {
			return
		}
		e.pq[i], e.pq[largest] = e.pq[largest], e.pq[i]
		i = largest
	}
}
