package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// errNotSent marks a scheduled request that was still queued when the
// step's drain limit ran out: it counts as failed, never as fast.
var errNotSent = errors.New("not sent before the drain limit")

// poissonSchedule returns the due offsets of a Poisson arrival process of
// the given rate over window, conditioned on its count: n =
// round(rate*window) arrivals placed as sorted uniform draws, which is
// exactly the distribution of a Poisson process's arrival times given n
// arrivals in the window. Fixing n keeps the offered load of a step equal
// across seeds while the burst pattern still varies. The same seed gives
// the same schedule.
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// timing is one open-loop request, as offsets from the step start. The
// latency a user sees is Done-Due: a request that waits behind a stall is
// charged for the wait.
type timing struct {
	Due, Sent, Done time.Duration
	// Late is how long after Due the generator released the request
	// into its queue; it measures the generator, not the system.
	Late time.Duration
	// Worker is the client connection slot that sent the request.
	Worker int
	Err    error
}

// Latency is the request's latency from its due time.
func (t timing) Latency() time.Duration { return t.Done - t.Due }

// openLoop releases request i at its due offset into a queue that conns
// workers drain by calling do(w, i) on worker w's goroutine; requests
// wait in the generator's queue, not in the server, so at most conns
// requests are in flight. Requests still queued drain after the last
// due time; any not started by window+drain are marked errNotSent. It
// returns once every worker has finished.
func openLoop(due []time.Duration, conns int, window, drain time.Duration, do func(worker, i int) error) []timing {
	out := make([]timing, len(due))
	// Sized to the number of sends, so the releasing loop never blocks
	// on slow workers and lateness measures only the generator.
	queue := make(chan int, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				t := &out[i]
				t.Worker = w
				t.Sent = time.Since(start)
				if t.Sent > window+drain {
					t.Done = t.Sent
					t.Err = errNotSent
					continue
				}
				t.Err = do(w, i)
				t.Done = time.Since(start)
			}
		}(w)
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].Due = d
		out[i].Late = time.Since(start) - d
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// backlogAt counts the requests due before t that had not started by t:
// the queue the system left behind at that instant.
func backlogAt(ts []timing, t time.Duration) int {
	n := 0
	for _, x := range ts {
		if x.Due <= t && x.Sent > t {
			n++
		}
	}
	return n
}

// backlogGrowth fits a least-squares line to the backlog sampled at n
// evenly spaced instants over [from, to] and returns its slope in
// requests per second. A queue that drains after a cold start, or only
// fluctuates, has a slope near or below 0; an offered rate above the
// system's capacity grows it by the difference of the two rates. The
// fit reads the whole interval, where the backlog at one instant would
// depend on the burst that happened to precede it.
func backlogGrowth(ts []timing, from, to time.Duration, n int) float64 {
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		t := from + time.Duration(float64(to-from)*float64(i)/float64(n-1))
		x, y := t.Seconds(), float64(backlogAt(ts, t))
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	fn := float64(n)
	return (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
}
