// Package sched implements the shared work-unit scheduler and search
// driver behind the per-subspace search of HSP and LORA.
//
// The unit of work is smaller than the subspace: a *(subspace, dim-0
// candidate range)* chunk. Workers acquire units in a loop — first a
// prep unit per subspace (candidate enumeration, run exactly once per
// subspace so the Lemma-1 discipline holds), then enumeration chunks of
// the prepared subspace's root-level candidates, sized by candidate
// count so a fat subspace's DFS root level is shared across every idle
// worker. Whole-subspace units made a Zipf head subspace indivisible:
// one worker lane dragged ~66% of the candidate work while the others
// idled (the EXPERIMENTS.md S1 baseline).
//
// Run is the one driver both algorithms use, for every worker count: a
// single worker runs on the caller's goroutine, one chunk per subspace,
// in bound order — the sequential search. Prep units are handed out in
// subspace index order, and HSP and LORA index their work by bound, best
// first (internal/algo/bound), so the pruning threshold rises early and
// later, weaker subspaces can be skipped unprepared.
//
// Exactness is unaffected by steal order: the concurrent top-k's
// deterministic tie-break is order-independent, and a stale pruning
// threshold only admits extra candidates. Beyond preps starting in
// index order, the scheduler makes no ordering promises: every published
// chunk is acquired exactly once.
//
// The package is a leaf: pure stdlib, importable from any algorithm.
package sched

import "sync"

// oversubscribe is the auto-sized chunk count per worker per subspace:
// enough granularity for the tail to steal, few enough that per-chunk
// overhead stays invisible.
const oversubscribe = 4

// Tuning controls how a prepared subspace's root candidate range is
// split into steal-able chunks. The zero value auto-sizes.
type Tuning struct {
	// ChunkSize fixes the chunk length in dim-0 candidates: > 0 uses
	// exactly that size (1 is the adversarial minimum — every root
	// candidate its own unit), < 0 disables splitting (one chunk per
	// subspace), 0 auto-sizes from the worker count.
	ChunkSize int
}

// Unit is one acquired work item. Prep units ask the worker to prepare
// subspace Sub (build candidate lists) and report the root candidate
// count via Publish; enumeration units ask it to search the dim-0
// candidate range [Lo, Hi) of the already-prepared Sub.
type Unit struct {
	Sub    int
	Lo, Hi int
	Prep   bool
}

// Scheduler hands out prep and enumeration units to parallel workers.
// One Scheduler covers one query execution.
type Scheduler struct {
	mu       sync.Mutex
	cond     sync.Cond
	tun      Tuning
	workers  int
	minChunk int
	numSub   int
	nextSub  int // next subspace needing prep
	prep     int // prep units handed out but not yet Published
	queue    []Unit
	qhead    int
	pending  []int // unacquired+unfinished chunks per subspace
	aborted  bool
}

// New returns a scheduler over numSub subspaces for the given worker
// count (used by auto chunk sizing; must be >= 1). minChunk floors the
// auto-sized chunks so tiny subspaces are not shredded into
// per-candidate units.
func New(numSub, workers, minChunk int, tun Tuning) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{tun: tun, workers: workers, minChunk: minChunk, numSub: numSub, pending: make([]int, numSub)}
	s.cond.L = &s.mu
	return s
}

// Acquire blocks until a unit is available and returns it; ok=false
// means the search is drained (or aborted) and the worker should exit.
// Chunks are preferred over preps so the number of subspaces held
// prepared-but-unfinished stays bounded by the worker count, not the
// subspace count.
//
//seq:hotpath
func (s *Scheduler) Acquire() (u Unit, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.aborted {
			return Unit{}, false
		}
		if s.qhead < len(s.queue) {
			u = s.queue[s.qhead]
			s.qhead++
			return u, true
		}
		if s.nextSub < s.numSub {
			u = Unit{Sub: s.nextSub, Prep: true}
			s.nextSub++
			s.prep++
			return u, true
		}
		if s.prep == 0 {
			// nothing queued, nothing left to prep, nothing in flight
			// that could publish more: drained.
			return Unit{}, false
		}
		s.cond.Wait()
	}
}

// Publish completes a prep unit: the worker prepared subspace sub and
// found n root (dim-0) candidates. n <= 0 marks the subspace skipped
// (or failed) — no chunks are queued. It returns how many chunks were
// queued; 0 also when the scheduler was aborted meanwhile, in which
// case no Done calls will follow and the caller reclaims the prepared
// state itself. Every acquired prep unit must be Published exactly
// once, on every path including errors, or waiting workers deadlock.
func (s *Scheduler) Publish(sub, n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prep--
	count := 0
	if n > 0 && !s.aborted {
		if s.qhead == len(s.queue) {
			// drained queue: reuse the backing array instead of growing
			s.queue = s.queue[:0]
			s.qhead = 0
		}
		c := s.chunkFor(n)
		for lo := 0; lo < n; lo += c {
			hi := lo + c
			if hi > n {
				hi = n
			}
			s.queue = append(s.queue, Unit{Sub: sub, Lo: lo, Hi: hi})
			count++
		}
		s.pending[sub] = count
	}
	s.cond.Broadcast()
	return count
}

// Done records that one acquired chunk of sub finished (successfully or
// not) and reports whether it was the last one — the point at which the
// subspace's prepared state can be recycled.
//
//seq:hotpath
func (s *Scheduler) Done(sub int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending[sub]--
	return s.pending[sub] == 0
}

// Abort wakes every waiting worker and makes all future Acquires fail,
// so an error or cancellation on one worker drains the others promptly.
// Chunks already acquired still run to completion (their Done calls
// stay balanced); unacquired ones are dropped.
func (s *Scheduler) Abort() {
	s.mu.Lock()
	s.aborted = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// chunkFor sizes the chunks of a subspace with n root candidates.
// Called with s.mu held.
func (s *Scheduler) chunkFor(n int) int {
	c := s.tun.ChunkSize
	if c > 0 {
		return c
	}
	if c < 0 || s.workers == 1 {
		// A lone worker has nobody to share the subspace with.
		return n
	}
	c = (n + oversubscribe*s.workers - 1) / (oversubscribe * s.workers)
	if c < s.minChunk {
		c = s.minChunk
	}
	if c > n {
		c = n
	}
	return c
}

// Worker is one goroutine's side of a search: the two callbacks an
// algorithm hands Run. P is the algorithm's prepared per-subspace state;
// Run pools and recycles it, so Prep must fully overwrite whatever a
// previous subspace left in p.
type Worker[P any] interface {
	// Prep prepares subspace sub into p and returns its root (dim-0)
	// candidate count; 0 skips the subspace.
	Prep(p *P, sub int) (roots int, err error)
	// Chunk enumerates the roots [lo, hi) of subspace sub, prepared in
	// p. p is shared read-only with the other chunks of sub.
	Chunk(p *P, sub, lo, hi int) error
}

// Run searches numSub subspaces on the given number of workers and
// returns the first error any callback reported (which aborts the
// rest). newWorker builds lane w's callbacks; lane 0 runs on the
// caller's goroutine, so workers <= 1 starts no goroutine at all and,
// with one chunk per subspace, preps and enumerates the subspaces
// strictly in order.
func Run[P any](numSub, workers, minChunk int, tun Tuning, newWorker func(w int) Worker[P]) error {
	r := &run[P]{sch: New(numSub, workers, minChunk, tun), preps: make([]*P, numSub)}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.loop(newWorker(w))
		}(w)
	}
	r.loop(newWorker(0))
	wg.Wait()
	return r.err
}

// run is the shared state of one search: the scheduler, the
// prepared-subspace handoff slots, and a small recycling pool of prep
// states (bounded by the worker count, because the scheduler drains
// queued chunks before starting new preps). preps[i] is written by the
// preparing worker before Publish and read by chunk workers after
// Acquire; the scheduler's lock orders the two.
type run[P any] struct {
	sch   *Scheduler
	preps []*P

	mu   sync.Mutex
	pool []*P

	errOnce sync.Once
	err     error
}

// loop is one worker lane: acquire units until the search drains.
func (r *run[P]) loop(wk Worker[P]) {
	for {
		u, ok := r.sch.Acquire()
		if !ok {
			return
		}
		var err error
		if u.Prep {
			err = r.prep(wk, u.Sub)
		} else {
			err = r.chunk(wk, u)
		}
		if err != nil {
			r.errOnce.Do(func() { r.err = err })
			r.sch.Abort()
			return
		}
	}
}

func (r *run[P]) prep(wk Worker[P], sub int) error {
	p := r.take()
	n, err := wk.Prep(p, sub)
	if err != nil || n <= 0 {
		r.sch.Publish(sub, 0)
		r.put(p)
		return err
	}
	r.preps[sub] = p
	if r.sch.Publish(sub, n) == 0 {
		// Aborted before any chunk was queued: no Done will follow, so
		// reclaim the prepared state here.
		r.preps[sub] = nil
		r.put(p)
	}
	return nil
}

func (r *run[P]) chunk(wk Worker[P], u Unit) error {
	p := r.preps[u.Sub]
	err := wk.Chunk(p, u.Sub, u.Lo, u.Hi)
	if r.sch.Done(u.Sub) {
		r.preps[u.Sub] = nil
		r.put(p)
	}
	return err
}

func (r *run[P]) take() *P {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.pool); n > 0 {
		p := r.pool[n-1]
		r.pool = r.pool[:n-1]
		return p
	}
	return new(P)
}

func (r *run[P]) put(p *P) {
	r.mu.Lock()
	r.pool = append(r.pool, p)
	r.mu.Unlock()
}
