package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/synth"
	"spatialseq/internal/workload"
)

// closedSpec is an in-process closed-loop workload: one caller sends
// the next query as soon as the previous one returns, against a fresh
// engine.
type closedSpec struct {
	Name string
	Data synth.Config
	// Algo runs with Parallelism set to the host's CPU count.
	Algo core.Algorithm
	// Shape is the query construction; Count and Seed are set per run.
	Shape workload.Config
	// Queries is the number of distinct queries the loop cycles
	// through: few enough that one window runs each of them two or three
	// times, in passes spread over the window, and at least 100 so that
	// the p90 of their best latencies has 10 queries beyond it.
	Queries int
	// CheckQueries is the size of the check subset: the first queries
	// of the sequence, re-answered by a second exact path outside the
	// timed window.
	CheckQueries int
	// Setups is how many times set-up is repeated; setup_s is the median.
	Setups int
	// Deadline is how long the caller waits for one answer. A query
	// past it returns context.DeadlineExceeded and counts as failed,
	// with its time until return kept as its latency.
	Deadline time.Duration
}

var gaode1mLORA = closedSpec{
	Name:         "gaode-1m-lora",
	Data:         synth.GaodeLike(1_000_000, dataSeed),
	Algo:         core.LORA,
	Shape:        gaodeShape,
	Queries:      100,
	CheckQueries: 30,
	Setups:       3,
	Deadline:     10 * time.Second,
}

// gaodeShape is the evaluation's query construction for the Gaode
// family (internal/eval's familyWorkload): real dataset objects with
// jittered attributes and click positions, drawn from a 10 km window on
// the metropolitan extent.
var gaodeShape = workload.Config{
	M: 3, Mode: workload.DistanceBounded, Scale: 10,
	Params: query.DefaultParams(), Variant: query.CSEQ,
	AttrJitter: 0.1, LocJitter: 1.0,
}

// generate draws n queries of the given shape from seed.
func generate(ds *dataset.Dataset, shape workload.Config, n int, seed int64) ([]*query.Query, error) {
	if n == 0 {
		return nil, nil
	}
	shape.Count, shape.Seed = n, seed
	return workload.Generate(ds, shape)
}

// dataSeed generates every dataset, the seqserver default. A different
// dataset seed moves the whole geography and every query's cost with
// it.
const dataSeed = 1

// contentSeed draws the contents of every workload's queries: the closed
// loop's query set, and every HTTP request (the popular pool, each
// step's mix, its fresh and pinned examples). The workload seed draws
// the order of the closed loop's queries and the HTTP arrival times.
// Per-query costs have a heavy tail, and a run measures only one or a
// few hundred distinct queries: drawn from the workload seed, the p90
// of gaode-1m-lora moved from 1.32 to 1.68 times its p50, the HTTP p90
// by about ±15% and the HTTP capacity between 111/s and 194/s over six
// seeds, while repeated runs of one seed's queries agreed far better.
// Fixed query contents, like the fixed dataset, keep the figures to the
// program and the host.
const contentSeed = 1

// querySeed derives the seed of a run's query draws from the workload
// seed.
func querySeed(seed int64) int64 { return seed*1_000_003 + 17 }

func (s closedSpec) options() core.Options {
	var opt core.Options
	opt.HSP.Parallelism = runtime.NumCPU()
	opt.LORA.Parallelism = runtime.NumCPU()
	return opt
}

// referenceOptions returns the options of the second path an answer of
// algo is compared with: sequential HSP for exact answers, HSP as
// parallel as the workload for approximate ones.
func (s closedSpec) referenceOptions(algo core.Algorithm) core.Options {
	if algo == core.LORA {
		return s.options()
	}
	return core.Options{}
}

// setup times s.Setups set-ups and returns the last dataset and engine
// together with the run's queries, drawn once from contentSeed and put
// in the workload seed's order (the dataset is the same every time). A set-up is dataset generation,
// engine construction and, when warm, a PartitionBucketed call for every
// query's radius: a long-lived engine pays each partition build once,
// not per query, so the timed window measures the warm engine and the
// builds count in setup_s. The traced run starts cold instead, to time
// the builds from its pre-calls.
func (s closedSpec) setup(rc *runCtx, r *report, warm bool) (*dataset.Dataset, *core.Engine, []*query.Query, error) {
	var total, load, index []float64
	var (
		ds  *dataset.Dataset
		eng *core.Engine
		qs  []*query.Query
	)
	for i := 0; i < s.Setups; i++ {
		ds, eng = nil, nil
		runtime.GC()
		t0 := time.Now()
		d, err := synth.Generate(s.Data)
		if err != nil {
			return nil, nil, nil, err
		}
		t1 := time.Now()
		e := core.NewEngine(d)
		t2 := time.Now()
		if qs == nil {
			qs, err = generate(d, s.Shape, s.Queries, querySeed(contentSeed))
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%s: drawing queries: %w", s.Name, err)
			}
			rng := rand.New(rand.NewSource(querySeed(rc.Seed)))
			rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		}
		t3 := time.Now()
		if warm {
			if err := warmPartitions(d, e, qs); err != nil {
				return nil, nil, nil, err
			}
		}
		ds, eng = d, e
		total = append(total, (t2.Sub(t0) + time.Since(t3)).Seconds())
		load = append(load, t1.Sub(t0).Seconds())
		index = append(index, t2.Sub(t1).Seconds())
	}
	rc.logf("%s: set-up %.3fs (median of %d), %d objects", s.Name, median(total), s.Setups, ds.Len())
	if rc.Traced {
		r.set("dataset.load_s", "s", median(load))
		r.set("core.index_build_s", "s", median(index))
	} else {
		r.set("setup_s", "s", median(total))
	}
	r.Detail["setup_s_samples"] = total
	return ds, eng, qs, nil
}

// warmPartitions builds the partition of every query's radius bucket,
// on as many goroutines as CPUs. Each goroutine takes a contiguous run of
// the sorted radii, so no two build the same bucket (except at most at
// a boundary).
func warmPartitions(ds *dataset.Dataset, eng *core.Engine, qs []*query.Query) error {
	radii := make([]float64, len(qs))
	for i, q := range qs {
		radii[i] = simil.NewContext(ds, q).PartitionRadius()
	}
	sort.Float64s(radii)
	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(radii)/workers, (w+1)*len(radii)/workers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, r := range radii[lo:hi] {
				if _, err := eng.PartitionIndex().PartitionBucketed(r); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// answer is one completed closed-loop query.
type answer struct {
	Query   int
	Latency time.Duration
	Algo    core.Algorithm
	Tuples  []tuple
	Err     error
}

func tuplesOf(res *core.Result) []tuple {
	out := make([]tuple, len(res.Tuples))
	for i, t := range res.Tuples {
		out[i] = tuple{Positions: t.Positions, Sim: t.Sim}
	}
	return out
}

// loop runs the closed loop for window: query i of the sequence is
// qs[i%len(qs)]. With tr non-nil every query goes through
// tracer.search instead.
func (s closedSpec) loop(ds *dataset.Dataset, eng *core.Engine, qs []*query.Query, window time.Duration, tr *tracer) ([]answer, time.Duration) {
	opt := s.options()
	var out []answer
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), s.Deadline)
		var (
			res *core.Result
			lat time.Duration
			err error
		)
		if tr != nil {
			res, lat, err = tr.search(ctx, ds, eng, i, qs[i%len(qs)], s.Algo, opt)
		} else {
			t0 := time.Now()
			res, err = eng.Search(ctx, qs[i%len(qs)], s.Algo, opt)
			lat = time.Since(t0)
		}
		cancel()
		a := answer{Query: i, Latency: lat, Err: err}
		if err == nil {
			a.Algo = res.Algorithm
			a.Tuples = tuplesOf(res)
		}
		out = append(out, a)
	}
	return out, time.Since(start)
}

// refBudget bounds the time a run spends on exact reference searches;
// check-subset queries left over are reported as unverified, as are
// those whose reference search outlasts twice the workload's deadline.
const refBudget = 15 * time.Second

// check validates every answer and compares the check subset (the
// first CheckQueries of the sequence) with a second path: sequential
// HSP, tuple for tuple, for exact workloads, and exact HSP for the
// recall of approximate ones. refs caches the reference answers by
// query. Queries past their deadline count as failed, not incorrect. It
// returns the recall over the check subset.
func (s closedSpec) check(ds *dataset.Dataset, eng *core.Engine, qs []*query.Query, answers []answer, refs map[int][]tuple, r *report) float64 {
	var hit, total, unverified int
	start := time.Now()
	for _, a := range answers {
		id := a.Query % len(qs)
		q := qs[id]
		if errors.Is(a.Err, context.DeadlineExceeded) {
			r.Failed++
			continue
		}
		if a.Err != nil {
			r.incorrect("query %d: %v", a.Query, a.Err)
			continue
		}
		if err := checkAnswer(ds, q, a.Tuples); err != nil {
			r.incorrect("query %d: %v", a.Query, err)
			continue
		}
		if id >= s.CheckQueries {
			continue
		}
		want, ok := refs[id]
		if !ok {
			if time.Since(start) > refBudget {
				unverified++
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*s.Deadline)
			// Exact answers are compared with sequential HSP; the recall
			// of approximate ones needs only some exact path, and the
			// repository's differential tests check the parallel one
			// against brute force.
			ref, err := eng.Search(ctx, q, core.HSP, s.referenceOptions(a.Algo))
			cancel()
			if errors.Is(err, context.DeadlineExceeded) {
				unverified++
				continue
			}
			if err != nil {
				r.incorrect("query %d: exact reference: %v", a.Query, err)
				continue
			}
			want = tuplesOf(ref)
			refs[id] = want
		}
		h, n := recallOf(a.Tuples, want)
		hit, total = hit+h, total+n
		if a.Algo == core.LORA {
			continue
		}
		if err := compareExact(a.Tuples, want); err != nil {
			r.incorrect("query %d vs sequential HSP: %v", a.Query, err)
		}
	}
	r.Detail["check_unverified"] = unverified
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// latencies returns every answer's latency in milliseconds, failed ones
// included: a caller who gave up waited that long too.
func latencies(answers []answer) []float64 {
	xs := make([]float64, len(answers))
	for i, a := range answers {
		xs[i] = ms(a.Latency)
	}
	return xs
}

// bestLatencies returns, for each of the n distinct queries the loop
// cycled through (answer i ran query i%n), its lowest latency in
// milliseconds over its runs, and how many queries completed in that
// best run. A neighbour on the shared host only ever adds time, in
// episodes of seconds, so the best of runs spread over the window
// estimates the program's own cost.
func bestLatencies(answers []answer, n int) (best []float64, completed int) {
	best = make([]float64, min(n, len(answers)))
	ok := make([]bool, len(best))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for _, a := range answers {
		q := a.Query % n
		if l := ms(a.Latency); l < best[q] {
			best[q], ok[q] = l, a.Err == nil
		}
	}
	for _, o := range ok {
		if o {
			completed++
		}
	}
	return best, completed
}

// quiesce collects garbage, returns freed memory to the OS and resets
// the process's peak-RSS mark, so set-up garbage stays out of the
// measured window.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS("self")
}

func (s closedSpec) run(rc *runCtx) (*report, error) {
	r := &report{Detail: map[string]any{}}
	ds, eng, qs, err := s.setup(rc, r, !rc.Traced)
	if err != nil {
		return nil, err
	}
	if rc.Traced {
		return s.traced(rc, ds, qs, r)
	}
	quiesce()
	peaks := samplePeaks("self", rc.Window/peakSegments)
	answers, wall := s.loop(ds, eng, qs, rc.Window, nil)
	peak := median(peaks.stop())
	lat, done := bestLatencies(answers, len(qs))
	recall := s.check(ds, eng, qs, answers, map[int][]tuple{}, r)
	r.Attempted = len(answers)
	t := tailOf(lat, tailPct)
	// One caller completes a query per latency: at the best latencies it
	// completes this many per second.
	qps := float64(done) / (sum(lat) / 1000)
	r.set("latency_p50_ms", "ms", median(lat))
	r.set("latency_tail_ms", "ms", t.Value)
	r.set("throughput_qps", "1/s", qps)
	// One closed-loop caller sustains exactly its completion rate.
	r.set("max_rate_qps", "1/s", qps)
	r.set("ok_ratio", "ratio", 1-float64(r.Failed)/float64(max(r.Attempted, 1)))
	r.set("peak_rss_mb", "MB", peak)
	r.set("recall_at_k", "ratio", recall)
	r.Detail["latency_tail"] = t
	r.Detail["latencies_ms"] = latencies(answers)
	r.Detail["best_latencies_ms"] = lat
	r.Detail["passes"] = float64(len(answers)) / float64(len(qs))
	r.Detail["wall_qps"] = float64(len(answers)) / wall.Seconds()
	r.Detail["check_queries"] = min(s.CheckQueries, len(answers))
	rc.logf("%s: %d runs of %d queries in %.1fs, best-of-runs p50 %.2fms, %s %.2fms, %.2f/s, recall %.4f", s.Name, len(answers), len(qs), wall.Seconds(), median(lat), t.Name(), t.Value, qps, recall)
	return r, nil
}

// traced runs the same query sequence twice, each for half the window
// on a fresh, cold engine: untraced, then traced. The first gives the
// allocation per query and the untraced median for the overhead; the
// second gives the per-layer metrics.
func (s closedSpec) traced(rc *runCtx, ds *dataset.Dataset, qs []*query.Query, r *report) (*report, error) {
	half := rc.Window / 2
	eng := core.NewEngine(ds)
	quiesce()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, _ := s.loop(ds, eng, qs, half, nil)
	runtime.ReadMemStats(&m1)
	n := float64(max(len(plain), 1))
	r.set("core.alloc_kb_per_query", "KiB", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n)
	r.set("core.mallocs_per_query", "count", float64(m1.Mallocs-m0.Mallocs)/n)

	eng = core.NewEngine(ds)
	quiesce()
	tr := newTracer()
	traced, _ := s.loop(ds, eng, qs, half, tr)
	s.check(ds, eng, qs, append(plain, traced...), map[int][]tuple{}, r)
	r.Attempted = len(plain) + len(traced)

	p50, p50t := median(latencies(plain)), median(latencies(traced))
	r.set("obs.trace_overhead_pct", "%", 100*(p50t-p50)/p50)
	absent := tr.engineLayers(r.Metrics)
	for _, name := range []string{"server.miss_overhead_ms", "server.hit_ms"} {
		r.set(name, "ms", 0)
	}
	r.set("qcache.hit_ratio", "ratio", 0)
	r.set("qcache.evictions", "count", 0)
	r.set("loadgen.late_p99_ms", "ms", 0)
	absent = append(absent, "server", "qcache", "loadgen")
	r.Detail["absent_layers"] = absent
	r.Detail["latency_p50_untraced_ms"] = p50
	r.Detail["latency_p50_traced_ms"] = p50t
	tracePath := filepath.Join(rc.OutDir, fmt.Sprintf("%s-seed%d.trace.json", s.Name, rc.Seed))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	r.Detail["trace_file"] = tracePath
	rc.logf("%s: traced %d queries (untraced %d), overhead %.1f%%, absent layers %v", s.Name, len(traced), len(plain), 100*(p50t-p50)/p50, absent)
	return r, nil
}
