package partition

import (
	"math"
	"sync"
	"sync/atomic"
)

// Partition results are immutable and depend only on the radius, so
// queries with similar radii can share one. PartitionBucketed rounds the
// requested radius UP to the next bucket boundary (powers of
// bucketFactor) and caches the partition per bucket. A larger radius is
// always safe: core subspaces stop splitting earlier (still below the
// widened diagonal bound) and auxiliary bands grow wider, so the
// containment guarantee — every candidate tuple lies inside the
// ac-subspace owning its first point — continues to hold. Exact
// algorithms stay exact; LORA's cells become up to bucketFactor coarser,
// which its accuracy already has to tolerate across the D sweep.

// bucketFactor is the radius quantization step (each bucket covers
// [r, r*1.25)).
const bucketFactor = 1.25

// cacheCap bounds the per-index partition cache.
const cacheCap = 16

type partitionCache struct {
	mu      sync.Mutex
	entries map[float64]*cacheEntry
	order   []float64 // LRU, oldest first
	builds  atomic.Int64
}

// cacheEntry is one radius bucket's partition. ready closes once p/err
// are set, so concurrent requests for a cold bucket wait for the single
// build in flight instead of building their own copy.
type cacheEntry struct {
	ready chan struct{}
	p     *Partition
	err   error
}

// PartitionBucketed returns a (possibly shared) partition whose radius is
// the requested radius rounded up to a bucket boundary. Rules for radius
// validity match Partition.
func (ix *Index) PartitionBucketed(radius float64) (*Partition, error) {
	if math.IsNaN(radius) || radius <= 0 {
		return ix.Partition(radius) // rejects it; nothing to cache
	}
	if math.IsInf(radius, 1) {
		return ix.cachedPartition(radius) // +Inf is itself a bucket
	}
	bucket := math.Pow(bucketFactor, math.Ceil(math.Log(radius)/math.Log(bucketFactor)))
	if bucket < radius { // floating-point guard
		bucket *= bucketFactor
	}
	return ix.cachedPartition(bucket)
}

func (ix *Index) cachedPartition(radius float64) (*Partition, error) {
	e, cold := ix.cache.entry(radius)
	if cold {
		// Build outside the lock; concurrent requests for this bucket
		// wait on ready. The radius is valid, so the build cannot fail
		// and the entry never needs evicting for an error.
		ix.cache.builds.Add(1)
		func() {
			defer close(e.ready)
			e.p, e.err = ix.Partition(radius)
		}()
	}
	<-e.ready
	return e.p, e.err
}

// entry returns radius's cache entry, marking it most recently used. A
// missing entry is created (evicting the least recently used one at the
// cap) and reported cold: the caller must build it and close ready.
func (c *partitionCache) entry(radius float64) (e *cacheEntry, cold bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[float64]*cacheEntry)
	}
	if e, ok := c.entries[radius]; ok {
		c.touch(radius)
		return e, false
	}
	if len(c.order) >= cacheCap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest) // waiters on it keep their pointer
	}
	e = &cacheEntry{ready: make(chan struct{})}
	c.entries[radius] = e
	c.order = append(c.order, radius)
	return e, true
}

func (c *partitionCache) touch(radius float64) {
	for i, r := range c.order {
		//lint:ignore floatcmp cache keys match on exact radius identity, not proximity
		if r == radius {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = radius
			return
		}
	}
}

// CacheLen reports the number of cached partitions (for tests).
func (ix *Index) CacheLen() int {
	ix.cache.mu.Lock()
	defer ix.cache.mu.Unlock()
	return len(ix.cache.entries)
}
