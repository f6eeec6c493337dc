package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// prepared is the test algorithm's per-subspace state: which subspace
// it was prepared for, so chunks can check they got the right one.
type prepared struct{ sub int }

// recorder is a Worker that logs every callback and marks coverage.
type recorder struct {
	mu      *sync.Mutex
	sizes   []int
	log     *[]string
	states  map[*prepared]bool
	covered [][]bool
	prepped []int
	failAt  string
}

func (r *recorder) Prep(p *prepared, sub int) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := fmt.Sprintf("prep %d", sub)
	*r.log = append(*r.log, ev)
	if ev == r.failAt {
		return 0, errors.New(ev)
	}
	r.states[p] = true
	r.prepped[sub]++
	p.sub = sub
	return r.sizes[sub], nil
}

func (r *recorder) Chunk(p *prepared, sub, lo, hi int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := fmt.Sprintf("chunk %d [%d,%d)", sub, lo, hi)
	*r.log = append(*r.log, ev)
	if p.sub != sub {
		return fmt.Errorf("%s: handed the state of subspace %d", ev, p.sub)
	}
	for i := lo; i < hi; i++ {
		if r.covered[sub][i] {
			return fmt.Errorf("%s: candidate %d covered twice", ev, i)
		}
		r.covered[sub][i] = true
	}
	if ev == r.failAt {
		return errors.New(ev)
	}
	return nil
}

func newRecorder(sizes []int, failAt string) *recorder {
	r := &recorder{
		mu:      new(sync.Mutex),
		sizes:   sizes,
		log:     new([]string),
		states:  make(map[*prepared]bool),
		covered: make([][]bool, len(sizes)),
		prepped: make([]int, len(sizes)),
		failAt:  failAt,
	}
	for i, n := range sizes {
		r.covered[i] = make([]bool, n)
	}
	return r
}

// TestRunOneWorker: a single worker is the sequential search — prep
// then one whole-subspace chunk, subspace by subspace, skipped
// subspaces publishing nothing, and one recycled prep state throughout.
func TestRunOneWorker(t *testing.T) {
	r := newRecorder([]int{40, 0, 7}, "")
	if err := Run(3, 1, 16, Tuning{}, func(int) Worker[prepared] { return r }); err != nil {
		t.Fatal(err)
	}
	want := []string{"prep 0", "chunk 0 [0,40)", "prep 1", "prep 2", "chunk 2 [0,7)"}
	if fmt.Sprint(*r.log) != fmt.Sprint(want) {
		t.Errorf("call order = %q, want %q", *r.log, want)
	}
	if len(r.states) != 1 {
		t.Errorf("one worker used %d prep states, want 1 recycled", len(r.states))
	}
}

// TestRunParallelCoverage: with stealing workers every subspace is
// prepped once and every root covered exactly once, by chunks that see
// their own subspace's prepared state.
func TestRunParallelCoverage(t *testing.T) {
	sizes := []int{500, 0, 13, 1, 97, 0, 240}
	for _, tun := range []Tuning{{}, {ChunkSize: 1}, {ChunkSize: 3}, {ChunkSize: -1}} {
		r := newRecorder(sizes, "")
		if err := Run(len(sizes), 4, 1, tun, func(int) Worker[prepared] { return r }); err != nil {
			t.Fatalf("tuning %+v: %v", tun, err)
		}
		for sub, n := range sizes {
			if r.prepped[sub] != 1 {
				t.Errorf("tuning %+v: subspace %d prepped %d times", tun, sub, r.prepped[sub])
			}
			for i := 0; i < n; i++ {
				if !r.covered[sub][i] {
					t.Errorf("tuning %+v: subspace %d candidate %d never covered", tun, sub, i)
				}
			}
		}
	}
}

// TestRunError: the first callback error aborts the search and is what
// Run returns, for a failing prep and a failing chunk alike.
func TestRunError(t *testing.T) {
	for _, failAt := range []string{"prep 1", "chunk 2 [0,5)"} {
		for _, workers := range []int{1, 3} {
			r := newRecorder([]int{5, 5, 5, 5}, failAt)
			err := Run(4, workers, 1, Tuning{ChunkSize: 5}, func(int) Worker[prepared] { return r })
			if err == nil || err.Error() != failAt {
				t.Errorf("workers %d, fail at %q: Run = %v", workers, failAt, err)
			}
			if workers == 1 && (*r.log)[len(*r.log)-1] != failAt {
				t.Errorf("one worker kept going after %q: %q", failAt, *r.log)
			}
		}
	}
}
