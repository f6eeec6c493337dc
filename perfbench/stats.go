package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTailBeyond is the number of samples that must lie above a reported
// tail percentile: fewer and the percentile is one or two outliers.
const minTailBeyond = 10

// tailPct is the reported tail percentile. Every workload's run holds
// well over 10 samples beyond it. Higher percentiles sit among a few
// rare heavy queries (cold partition builds at 1M, a fresh server's
// cold caches) and move by 25-40% between seeds on a shared host.
const tailPct = 90

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value of xs (mean of the two middle values
// for even lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[rankOf(p, len(xs))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile of n samples.
func rankOf(p float64, n int) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// tail is a reported tail latency: the value, the percentile it sits at
// and the sample count it was taken from.
type tail struct {
	Value      float64 `json:"value_ms"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// Name renders the percentile as it is reported, e.g. "p90" or "p89.4".
func (t tail) Name() string { return fmt.Sprintf("p%g", t.Percentile) }

// tailOf returns the preferred percentile of xs when at least
// minTailBeyond samples lie beyond it, and otherwise the highest
// percentile that has minTailBeyond samples beyond it (the maximum when
// there are too few samples for any). A fixed preferred percentile keeps
// runs with slightly different sample counts comparable.
func tailOf(xs []float64, preferred float64) tail {
	n := len(xs)
	t := tail{Percentile: preferred, Samples: n}
	if n == 0 {
		return t
	}
	s := sortedCopy(xs)
	rank := rankOf(preferred, n)
	if n-rank < minTailBeyond {
		rank = n - minTailBeyond
		if rank < 1 {
			rank = n
		}
		t.Percentile = math.Floor(1000*float64(rank)/float64(n)) / 10
	}
	t.Value = s[rank-1]
	t.Beyond = n - rank
	return t
}
