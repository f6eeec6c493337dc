package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"spatialseq/internal/dataset"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
)

// simTol is the tolerance between a reported similarity and the
// reference recomputation: the engine's blocked kernels may sum in a
// different order than simil.SimOfPositions, never more than a few ulps
// apart.
const simTol = 1e-9

// tuple is one ranked answer tuple: dataset positions, one per example
// dimension, and the reported similarity.
type tuple struct {
	Positions []int32
	Sim       float64
}

func (t tuple) key() string {
	var b strings.Builder
	for i, p := range t.Positions {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(p)))
	}
	return b.String()
}

func simClose(a, b float64) bool {
	return math.Abs(a-b) <= simTol*math.Max(1, math.Abs(b))
}

// checkAnswer validates one answer against its (validated) query without
// a second search: at most k tuples, ordered by non-increasing
// similarity; every tuple has one object per dimension with the
// example's category, honours the pins, repeats no object, satisfies the
// beta-norm bound, and reports the similarity simil.SimOfPositions
// recomputes.
func checkAnswer(ds *dataset.Dataset, q *query.Query, ans []tuple) error {
	if len(ans) > q.Params.K {
		return fmt.Errorf("%d tuples for k=%d", len(ans), q.Params.K)
	}
	sctx := simil.NewContext(ds, q)
	m := q.Example.M()
	for i, t := range ans {
		if len(t.Positions) != m {
			return fmt.Errorf("tuple %d has %d objects, example has %d", i, len(t.Positions), m)
		}
		for d, pos := range t.Positions {
			if pos < 0 || int(pos) >= ds.Len() {
				return fmt.Errorf("tuple %d dim %d: position %d out of range", i, d, pos)
			}
			if ds.Category(int(pos)) != q.Example.Categories[d] {
				return fmt.Errorf("tuple %d dim %d: object %d has category %d, example wants %d",
					i, d, pos, ds.Category(int(pos)), q.Example.Categories[d])
			}
		}
		for _, f := range q.Example.Fixed {
			if t.Positions[f.Dim] != f.Obj {
				return fmt.Errorf("tuple %d dim %d: object %d, pinned to %d", i, f.Dim, t.Positions[f.Dim], f.Obj)
			}
		}
		sim, ok := sctx.SimOfPositions(t.Positions)
		if !ok {
			return fmt.Errorf("tuple %d (%s) repeats an object or breaks the beta-norm bound", i, t.key())
		}
		if !simClose(t.Sim, sim) {
			return fmt.Errorf("tuple %d (%s): reported sim %.17g, recomputed %.17g", i, t.key(), t.Sim, sim)
		}
		if i > 0 && t.Sim > ans[i-1].Sim {
			return fmt.Errorf("tuple %d sim %.17g ranks below tuple %d sim %.17g", i, t.Sim, i-1, ans[i-1].Sim)
		}
	}
	return nil
}

// compareExact requires got to equal the reference answer of a second
// exact path tuple for tuple: same tuples in the same ranks, with
// similarities equal within simTol.
func compareExact(got, want []tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples, exact reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].key() != want[i].key() {
			return fmt.Errorf("rank %d: tuple (%s), exact reference (%s)", i, got[i].key(), want[i].key())
		}
		if !simClose(got[i].Sim, want[i].Sim) {
			return fmt.Errorf("rank %d: sim %.17g, exact reference %.17g", i, got[i].Sim, want[i].Sim)
		}
	}
	return nil
}

// recallOf returns how many of the exact top-k tuples appear in got, and
// how many exact tuples there were.
func recallOf(got, exact []tuple) (hit, total int) {
	in := make(map[string]bool, len(got))
	for _, t := range got {
		in[t.key()] = true
	}
	for _, t := range exact {
		if in[t.key()] {
			hit++
		}
	}
	return hit, len(exact)
}
