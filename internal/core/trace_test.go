package core

import (
	"context"
	"testing"
	"time"

	"spatialseq/internal/obs"
	"spatialseq/internal/obs/span"
)

// TestSearchTracePhases checks that each algorithm reports its phase
// timings through the span tree and that, with one worker, the phases
// are disjoint slices of the elapsed wall time.
func TestSearchTracePhases(t *testing.T) {
	eng, q := setup(t, 300)
	ctx := context.Background()

	wantPhases := map[Algorithm][]string{
		DFSPrune: {"validate", "dfs.candidates", "dfs.search", "topk.merge"},
		HSP:      {"validate", "hsp.partition", "hsp.prep", "hsp.chunk", "topk.merge"},
		LORA:     {"validate", "lora.partition", "lora.prep", "lora.chunk", "topk.merge"},
	}
	for algo, want := range wantPhases {
		tr := span.NewTracer()
		qq := *q
		res, err := eng.Search(ctx, &qq, algo, Options{CollectStats: true, Spans: tr})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		snap := tr.PhaseTimings()
		got := make(map[string]obs.PhaseTiming, len(snap))
		var sum time.Duration
		for _, p := range snap {
			got[p.Name] = p
			if p.DurationMS < 0 {
				t.Errorf("%v: phase %s has negative duration %g", algo, p.Name, p.DurationMS)
			}
			if p.Parallel {
				t.Errorf("%v: phase %s marked parallel on one worker", algo, p.Name)
			}
			sum += time.Duration(p.DurationMS * float64(time.Millisecond))
		}
		for _, name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%v: phase %q missing from trace %v", algo, name, snap)
			}
		}
		if sum > res.Elapsed+time.Millisecond {
			t.Errorf("%v: phase sum %v exceeds elapsed %v", algo, sum, res.Elapsed)
		}
	}
}

// TestSearchWithoutTrace confirms the nil-tracer path costs no
// correctness.
func TestSearchWithoutTrace(t *testing.T) {
	eng, q := setup(t, 100)
	res, err := eng.Search(context.Background(), q, HSP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 {
		t.Error("expected results")
	}
}
