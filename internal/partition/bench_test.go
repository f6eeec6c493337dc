package partition

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkPartition measures the cost of building one partition (the
// hierarchical split, the per-core category regrouping and the
// neighbour lists), which a query pays on a partition-cache miss.
func BenchmarkPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10000, 100000} {
		ix := testIndex(randPoints(rng, n, 400))
		for _, radius := range []float64{10, 40} {
			b.Run(fmt.Sprintf("n=%dk/r=%g", n/1000, radius), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ix.Partition(radius); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGatherAC measures the per-query candidate gather: one
// category's ac-subspace points for every subspace of a partition.
func BenchmarkGatherAC(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10000, 100000} {
		ix := testIndex(randPoints(rng, n, 400))
		for _, radius := range []float64{10, 40} {
			p, err := ix.Partition(radius)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("n=%dk/r=%g", n/1000, radius), func(b *testing.B) {
				var dst Points
				for i := 0; i < b.N; i++ {
					for si := range p.Subspaces {
						dst.Reset()
						p.Subspaces[si].GatherAC(0, &dst)
					}
				}
			})
		}
	}
}
