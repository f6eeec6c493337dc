package main

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeededAndConditionedOnCount(t *testing.T) {
	const rate, window = 50.0, 10 * time.Second
	a := poissonSchedule(7, rate, window)
	if b := poissonSchedule(7, rate, window); !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, rate, window); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 500 {
		t.Fatalf("%d arrivals, want rate*window = 500", len(a))
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= window {
		t.Fatal("arrivals not sorted inside the window")
	}
	// Gaps of a Poisson process are exponential: mean 1/rate and a
	// coefficient of variation near 1 (a fixed-interval schedule has 0).
	var sum, sq float64
	for i := 1; i < len(a); i++ {
		g := (a[i] - a[i-1]).Seconds()
		sum += g
		sq += g * g
	}
	n := float64(len(a) - 1)
	m := sum / n
	cv := math.Sqrt(sq/n-m*m) / m
	if math.Abs(m-1/rate) > 0.1/rate || cv < 0.8 || cv > 1.2 {
		t.Fatalf("gap mean %.4fs (want %.4fs), cv %.2f (want ~1)", m, 1/rate, cv)
	}
}

func TestOpenLoopChargesQueueWaitFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	due := []time.Duration{0, 0, 0}
	ts := openLoop(due, 1, time.Second, time.Second, func(_, _ int) error {
		time.Sleep(service)
		return nil
	})
	for i, x := range ts {
		if x.Err != nil {
			t.Fatalf("request %d: %v", i, x.Err)
		}
		// One connection serves the burst in turn: request i waits for
		// the i requests before it, and that wait is part of its latency.
		if want := time.Duration(i+1) * service; x.Latency() < want {
			t.Errorf("request %d latency %v, want at least %v", i, x.Latency(), want)
		}
		if i > 0 && x.Sent < ts[i-1].Done {
			t.Errorf("request %d sent at %v before request %d finished at %v", i, x.Sent, i-1, ts[i-1].Done)
		}
		if x.Late > 10*time.Millisecond {
			t.Errorf("request %d released %v late; the queue wait must not count as generator lateness", i, x.Late)
		}
	}
	if got := backlogAt(ts, service/2); got != 2 {
		t.Errorf("backlog during the first request = %d, want 2", got)
	}
}

func TestOpenLoopBoundsInFlightToConns(t *testing.T) {
	due := make([]time.Duration, 12)
	var (
		mu             sync.Mutex
		inflight, peak int
	)
	openLoop(due, 3, time.Second, time.Second, func(_, _ int) error {
		mu.Lock()
		inflight++
		peak = max(peak, inflight)
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return nil
	})
	if peak > 3 {
		t.Fatalf("%d requests in flight, want at most 3", peak)
	}
}

func TestOpenLoopMarksRequestsPastTheDrainLimit(t *testing.T) {
	due := []time.Duration{0, 0, 0}
	ts := openLoop(due, 1, 0, 10*time.Millisecond, func(_, _ int) error {
		time.Sleep(30 * time.Millisecond)
		return nil
	})
	if ts[0].Err != nil {
		t.Fatalf("first request: %v", ts[0].Err)
	}
	for i := 1; i < len(ts); i++ {
		if !errors.Is(ts[i].Err, errNotSent) {
			t.Errorf("request %d: err %v, want errNotSent", i, ts[i].Err)
		}
	}
}

func TestTailOfKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if tl := tailOf(xs, 99); tl.Value != 990 || tl.Percentile != 99 || tl.Beyond != 10 {
		t.Errorf("p99 of 1..1000 = %+v, want value 990 with 10 beyond", tl)
	}
	tl := tailOf(xs[:200], 99)
	if tl.Beyond != 10 || tl.Value != 190 || tl.Percentile != 95 {
		t.Errorf("tail of 200 samples = %+v, want p95 = 190 with 10 beyond", tl)
	}
}

// queueOf returns the timings of arrivals due at the given rate, served
// one at a time at capacity requests per second.
func queueOf(arrivals, capacity float64, n int) []timing {
	ts := make([]timing, n)
	free := time.Duration(0)
	for i := range ts {
		ts[i].Due = time.Duration(float64(i) / arrivals * float64(time.Second))
		ts[i].Sent = max(ts[i].Due, free)
		free = ts[i].Sent + time.Duration(float64(time.Second)/capacity)
		ts[i].Done = free
	}
	return ts
}

func TestBacklogGrowthSeparatesOverloadFromDrain(t *testing.T) {
	window := 10 * time.Second
	// 100/s offered to a capacity of 80/s: the queue grows by 20/s.
	over := queueOf(100, 80, 1000)
	if g := backlogGrowth(over, window/4, window, growthSamples); g < 18 || g > 22 {
		t.Errorf("overload growth = %.2f/s, want about 20", g)
	}
	// 50/s after a burst of 100 at time 0, served at 80/s: the queue
	// drains until about 3.3 s, so it must not read as growing.
	drain := queueOf(1e9, 80, 100)
	for _, x := range queueOf(50, 80, 500) {
		x.Sent = max(x.Due, drain[len(drain)-1].Done)
		x.Done = x.Sent + time.Second/80
		drain = append(drain, x)
	}
	if g := backlogGrowth(drain, window/4, window, growthSamples); g > 0 {
		t.Errorf("draining queue growth = %.2f/s, want <= 0", g)
	}
}
