package main

import (
	"context"
	"testing"
	"time"
)

func TestBestLatenciesTakesEachQuerysFastestRun(t *testing.T) {
	// Three queries cycled twice and one more: answer i ran query i%3.
	lat := []time.Duration{30, 10, 50, 20, 40, 60, 25}
	var answers []answer
	for i, l := range lat {
		a := answer{Query: i, Latency: l * time.Millisecond}
		if i == 4 {
			a.Err = context.DeadlineExceeded
		}
		answers = append(answers, a)
	}
	best, completed := bestLatencies(answers, 3)
	want := []float64{20, 10, 50}
	for i := range want {
		if best[i] != want[i] {
			t.Fatalf("best = %v, want %v", best, want)
		}
	}
	if completed != 3 {
		t.Errorf("completed = %d, want 3", completed)
	}
	// A failed run that was the fastest still counts as waiting time, but
	// not as a completion.
	answers[1].Err = context.DeadlineExceeded
	if _, completed := bestLatencies(answers, 3); completed != 2 {
		t.Errorf("completed = %d with query 1's best run failed, want 2", completed)
	}
	// Fewer answers than distinct queries: only the queries that ran.
	if best, _ := bestLatencies(answers[:2], 3); len(best) != 2 {
		t.Errorf("%d best latencies from 2 answers, want 2", len(best))
	}
}

func TestNominalOfTakesEachRequestsFastestRun(t *testing.T) {
	run := func(lat ...time.Duration) *stepRun {
		st := &stepRun{Rate: 50, Requests: len(lat), Throughput: 50, Pass: true}
		for _, l := range lat {
			st.timings = append(st.timings, timing{Due: 0, Done: l * time.Millisecond})
		}
		return st
	}
	a := run(10, 40, 30)
	b := run(20, 15, 35)
	b.timings[2].Err = errNotSent
	nom := nominalOf([]*stepRun{a, b})
	// Best per request: 10, 15, 30 (request 2 failed in run b).
	if nom.P50MS != 15 {
		t.Errorf("p50 = %v, want 15", nom.P50MS)
	}
	if nom.Tail.Value != 30 || nom.Requests != 3 || !nom.Pass {
		t.Errorf("tail %v, requests %d, pass %v; want 30, 3, true", nom.Tail.Value, nom.Requests, nom.Pass)
	}
	b.Pass = false
	if nominalOf([]*stepRun{a, b}).Pass {
		t.Error("step meets the limit although one run missed it")
	}
}

func TestOverloadRunDropsUnsentAndCountsCompletionsInWindow(t *testing.T) {
	ts := []timing{
		{Done: 500 * time.Millisecond},
		{Done: 1500 * time.Millisecond},
		{Done: 2500 * time.Millisecond},
		{Done: 3500 * time.Millisecond, Err: errNotSent},
		{Done: 3900 * time.Millisecond},
	}
	reqs := make([]request, len(ts))
	for i := range reqs {
		reqs[i].Key = i
	}
	r, p, kept := dropUnsent(reqs, make([]reply, len(ts)), ts)
	if len(r) != 4 || len(p) != 4 || len(kept) != 4 || r[3].Key != 4 {
		t.Fatalf("kept %d requests ending with key %d, want 4 ending with key 4", len(r), r[len(r)-1].Key)
	}
	if reqs[3].Key != 3 {
		t.Error("dropUnsent reordered the step's shared request list")
	}
	// Over [1s, 4s]: the completions at 1.5 s, 2.5 s and 3.9 s.
	if got := completionRate(kept, time.Second, 4*time.Second); got != 1 {
		t.Errorf("completion rate = %v/s, want 1", got)
	}
}
