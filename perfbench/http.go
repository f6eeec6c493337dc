package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/query"
	"spatialseq/internal/synth"
	"spatialseq/internal/workload"
)

// httpSpec is an open-loop workload against the seqserver binary. Each
// step offers one fixed rate (requests/s) against a freshly started
// server, so query-cache and partition-cache state never leak between
// steps.
type httpSpec struct {
	Name string
	N    int
	// NominalRate is the offered rate of the nominal step, whose latency
	// and throughput are the reported end-to-end figures; it gets
	// NominalShare of the window.
	NominalRate  float64
	NominalShare float64
	// OverloadRate is the offered rate of the overload step, which gets
	// the rest of the window: far above what the server can serve, so
	// its completion rate is the server's capacity.
	OverloadRate float64
	// Runs is how many fresh servers take each step's arrivals and
	// requests, nominal and overload runs alternating. A request's
	// latency is its best over the nominal runs, and the capacity the
	// best over the overload runs: a neighbour on the shared host only
	// ever adds time, in episodes of seconds, so the best of runs spread
	// over the window estimates the program's own cost.
	Runs int
	// LimitMS is the latency limit on the tail percentile that the
	// nominal step must meet.
	LimitMS float64
	Shape   workload.Config
	Mix     mix
	// CheckQueries distinct queries of the nominal step are re-answered
	// by sequential HSP in process and compared tuple for tuple.
	CheckQueries int
	// ReplayQueries bounds the traced run's in-process replay of the
	// step's cache misses, which yields the engine's per-layer metrics.
	ReplayQueries int
	// Drain bounds how long queued requests of the nominal step may
	// still start after its last due time; later ones count as failed.
	Drain time.Duration
}

// mix is the request mix of an HTTP step: Fresh new CSEQ examples, FP
// CSEQ-FP examples with dimension 0 pinned through fixed_id (one
// subspace searched), and Repeats of Pool popular queries drawn with
// Zipf(ZipfS) popularity, query-cache hits after their first occurrence.
// No serving trace of this system exists; the shares are assumptions.
type mix struct {
	Fresh, FP, Repeats float64
	Pool               int
	ZipfS              float64
}

// withRepeats returns the mix with the repeat share set to r and the
// fresh and pinned shares scaled to fill the rest in their ratio.
func (m mix) withRepeats(r float64) mix {
	f := (1 - r) / (m.Fresh + m.FP)
	m.Fresh, m.FP, m.Repeats = m.Fresh*f, m.FP*f, r
	return m
}

var httpGaode100k = httpSpec{
	Name:          "http-gaode-100k",
	N:             100_000,
	NominalRate:   50,
	NominalShare:  0.7,
	OverloadRate:  800,
	Runs:          3,
	LimitMS:       1000,
	Shape:         gaodeShape,
	Mix:           mix{Fresh: 0.5, FP: 0.15, Repeats: 0.35, Pool: 40, ZipfS: 1.1},
	CheckQueries:  40,
	ReplayQueries: 200,
	Drain:         10 * time.Second,
}

// growthSamples is how many instants of a step's backlog its growth is
// fitted to.
const growthSamples = 60

// errNoSeqServer is returned by the HTTP workload without a server binary.
var errNoSeqServer = errors.New("-seqserver is required for the http workload")

// Wire format of POST /search, mirrored here so the benchmark speaks to
// the binary only over HTTP.
type wireExample struct {
	X        float64   `json:"x"`
	Y        float64   `json:"y"`
	Category string    `json:"category"`
	Attrs    []float64 `json:"attrs"`
	FixedID  *int64    `json:"fixed_id,omitempty"`
}

type wireRequest struct {
	Variant string        `json:"variant"`
	K       int           `json:"k"`
	Example []wireExample `json:"example"`
}

type wireResponse struct {
	Algorithm string  `json:"algorithm"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Results   []struct {
		Sim     float64 `json:"sim"`
		Objects []struct {
			ID int64 `json:"id"`
		} `json:"objects"`
	} `json:"results"`
}

// request is one scheduled HTTP request: the in-process query it
// encodes, its body, and an identity shared by repeats of one query.
type request struct {
	Query *query.Query
	Body  []byte
	Key   int
}

// reply is what came back for one request: its X-Cache header and body.
type reply struct {
	Cache string
	Body  []byte
}

// httpEnv is the in-process side of the workload: the same dataset the
// server generates from the same seed, used to draw queries, check
// answers and replay misses.
type httpEnv struct {
	spec    httpSpec
	ds      *dataset.Dataset
	posOf   map[int64]int32
	pool    []*query.Query
	nextKey int
}

func (s httpSpec) newEnv() (*httpEnv, error) {
	ds, err := synth.Generate(synth.GaodeLike(s.N, dataSeed))
	if err != nil {
		return nil, err
	}
	env := &httpEnv{spec: s, ds: ds, posOf: make(map[int64]int32, ds.Len())}
	for i := 0; i < ds.Len(); i++ {
		env.posOf[ds.Object(i).ID] = int32(i)
	}
	env.pool, err = generate(ds, s.Shape, s.Mix.Pool, querySeed(contentSeed))
	if err != nil {
		return nil, err
	}
	env.nextKey = s.Mix.Pool
	return env, nil
}

// requests builds the n requests of one step from its own seed: the mix
// picks each request's kind, and the fresh and pinned examples are
// drawn as two query sets and dealt out in order.
func (e *httpEnv) requests(seed int64, n int) ([]request, error) {
	m := e.spec.Mix
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, m.ZipfS, 1, uint64(m.Pool-1))
	kinds := make([]float64, n)
	var nFresh, nFP int
	for i := range kinds {
		kinds[i] = rng.Float64()
		switch {
		case kinds[i] < m.Fresh:
			nFresh++
		case kinds[i] < m.Fresh+m.FP:
			nFP++
		}
	}
	fresh, err := generate(e.ds, e.spec.Shape, nFresh, seed+1)
	if err != nil {
		return nil, err
	}
	pinned := e.spec.Shape
	pinned.Variant, pinned.FixedDims = query.CSEQFP, []int{0}
	fp, err := generate(e.ds, pinned, nFP, seed+2)
	if err != nil {
		return nil, err
	}
	out := make([]request, n)
	for i, u := range kinds {
		var q *query.Query
		key := e.nextKey
		switch {
		case u < m.Fresh:
			q, fresh = fresh[0], fresh[1:]
			e.nextKey++
		case u < m.Fresh+m.FP:
			q, fp = fp[0], fp[1:]
			e.nextKey++
		default:
			key = int(zipf.Uint64())
			q = e.pool[key]
		}
		body, err := e.encode(q)
		if err != nil {
			return nil, err
		}
		out[i] = request{Query: q, Body: body, Key: key}
	}
	return out, nil
}

func (e *httpEnv) encode(q *query.Query) ([]byte, error) {
	req := wireRequest{Variant: "cseq", K: q.Params.K}
	if q.Variant == query.CSEQFP {
		req.Variant = "cseq-fp"
	}
	for d := 0; d < q.Example.M(); d++ {
		ex := wireExample{
			X:        q.Example.Locations[d].X,
			Y:        q.Example.Locations[d].Y,
			Category: e.ds.CategoryName(q.Example.Categories[d]),
			Attrs:    q.Example.Attrs[d],
		}
		if obj := q.Example.FixedDim(d); obj >= 0 {
			id := e.ds.Object(int(obj)).ID
			ex.FixedID = &id
		}
		req.Example = append(req.Example, ex)
	}
	return json.Marshal(req)
}

// decode turns a response body into answer tuples over dataset positions.
func (e *httpEnv) decode(body []byte) (*wireResponse, []tuple, error) {
	var resp wireResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, err
	}
	out := make([]tuple, len(resp.Results))
	for i, r := range resp.Results {
		t := tuple{Sim: r.Sim, Positions: make([]int32, len(r.Objects))}
		for d, o := range r.Objects {
			pos, ok := e.posOf[o.ID]
			if !ok {
				return nil, nil, fmt.Errorf("object id %d not in dataset", o.ID)
			}
			t.Positions[d] = pos
		}
		out[i] = t
	}
	return &resp, out, nil
}

// server is one running seqserver process.
type server struct {
	cmd   *exec.Cmd
	url   string
	done  chan error
	setup time.Duration
}

// logWatch is the server's stderr: it finds the "listening" record
// that carries the bound address and discards the per-request log
// after it, keeping a short head for error reports.
type logWatch struct {
	buf   []byte
	head  []byte
	found bool
	addr  chan string
}

func (w *logWatch) Write(p []byte) (int, error) {
	if w.found {
		return len(p), nil
	}
	if len(w.head) < 4096 {
		w.head = append(w.head, p...)
	}
	w.buf = append(w.buf, p...)
	for {
		line, rest, ok := bytes.Cut(w.buf, []byte("\n"))
		if !ok {
			return len(p), nil
		}
		w.buf = rest
		var rec struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.Msg == "listening" {
			w.found = true
			w.buf = nil
			w.addr <- rec.Addr
			return len(p), nil
		}
	}
}

// startServer launches the binary and returns once /healthz answers;
// setup is the time from process start until then.
func startServer(bin string, args []string) (*server, error) {
	cmd := exec.Command(bin, args...)
	lw := &logWatch{addr: make(chan string, 1)}
	cmd.Stderr = lw
	// The server must not outlive the benchmark, even a killed one.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	select {
	case addr := <-lw.addr:
		s.url = "http://" + addr
	case err := <-s.done:
		return nil, fmt.Errorf("seqserver exited before listening: %v: %s", err, lw.head)
	case <-time.After(120 * time.Second):
		s.stop()
		return nil, errors.New("seqserver did not listen within 120s")
	}
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse; content unused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 120*time.Second {
			s.stop()
			return nil, fmt.Errorf("seqserver /healthz not ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.setup = time.Since(start)
	return s, nil
}

// gauge reads one unlabelled value from the server's /metrics.
func (s *server) gauge(name string) (float64, error) {
	resp, err := http.Get(s.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("metric %s not exported", name)
}

// stop terminates the server and waits until it has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // it may already have exited; Wait below reports either way
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // SIGTERM ignored: force it, then wait
		<-s.done
	}
}

// statusError is a reply with a status other than 200.
type statusError struct {
	Code int
	Body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.Code, e.Body) }

// post sends one search request and reads its reply.
func post(client *http.Client, url string, body []byte) (reply, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	rep := reply{Cache: resp.Header.Get("X-Cache"), Body: b}
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, &statusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(b))}
	}
	return rep, nil
}

// isFailure reports whether a request error is a failure rather than an
// incorrect answer: the request was never sent, the transport failed,
// or the server ran out of time (504). Every query is validated in
// process before it is sent, so any other status is the server
// rejecting or failing a valid query.
func isFailure(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.Code == http.StatusGatewayTimeout
	}
	return true
}

// stepRun is the outcome of one rate step.
type stepRun struct {
	Rate       float64 `json:"offered_qps"`
	Requests   int     `json:"requests"`
	WindowS    float64 `json:"window_s"`
	SetupS     float64 `json:"setup_s"`
	P50MS      float64 `json:"p50_ms"`
	Tail       tail    `json:"tail"`
	Throughput float64 `json:"throughput_qps"`
	Backlog    int     `json:"backlog_at_window_end"`
	Growth     float64 `json:"backlog_growth_per_s"`
	Failed     int     `json:"failed"`
	LateP99MS  float64 `json:"late_p99_ms"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	Evictions  float64 `json:"qcache_evictions"`
	Hits       int     `json:"hits"`
	Misses     int     `json:"misses"`
	Pass       bool    `json:"meets_limit"`

	started time.Time
	reqs    []request
	replies []reply
	timings []timing
}

// step is one rate step's seeded Poisson arrivals and its requests.
type step struct {
	rate   float64
	window time.Duration
	due    []time.Duration
	reqs   []request
}

// newStep draws step idx's arrivals at rate over window from the
// workload seed, and its requests from contentSeed.
func (e *httpEnv) newStep(seed int64, idx int, rate float64, window time.Duration) (*step, error) {
	off := int64(idx+1) * 7919
	due := poissonSchedule(querySeed(seed)+off, rate, window)
	reqs, err := e.requests(querySeed(contentSeed)+off+1, len(due))
	if err != nil {
		return nil, err
	}
	return &step{rate: rate, window: window, due: due, reqs: reqs}, nil
}

// offer starts a fresh server, offers the step's requests at their due
// times, and stops the server again. Requests still queued drain for
// up to drain after the window; with drain 0 (an overload step), those
// never sent are dropped from the run rather than counted as failed.
func (e *httpEnv) offer(rc *runCtx, sp *step, drain time.Duration) (*stepRun, error) {
	rate, window, due, reqs := sp.rate, sp.window, sp.due, sp.reqs
	srv, err := startServer(rc.SeqServer, []string{
		"-synth", "gaode", "-n", strconv.Itoa(e.spec.N),
		"-seed", strconv.Itoa(dataSeed), "-addr", "127.0.0.1:0",
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	conns := runtime.NumCPU()
	client := &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()
	replies := make([]reply, len(reqs))
	url := srv.url + "/search"
	peaks := samplePeaks(strconv.Itoa(srv.cmd.Process.Pid), window/peakSegments)
	started := time.Now()
	timings := openLoop(due, conns, window, drain, func(_, i int) error {
		var err error
		replies[i], err = post(client, url, reqs[i].Body)
		return err
	})
	if drain == 0 {
		reqs, replies, timings = dropUnsent(reqs, replies, timings)
	}
	st := &stepRun{
		Rate: rate, Requests: len(reqs), WindowS: window.Seconds(), SetupS: srv.setup.Seconds(),
		PeakRSSMB: median(peaks.stop()), started: started, reqs: reqs, replies: replies, timings: timings,
	}
	if st.Evictions, err = srv.gauge("spatialseq_qcache_evictions"); err != nil {
		rc.logf("reading qcache evictions: %v", err)
	}
	var lat, late []float64
	first, last := window, time.Duration(0)
	for i, t := range timings {
		late = append(late, ms(t.Late))
		if t.Err != nil {
			st.Failed++
			continue
		}
		lat = append(lat, ms(t.Latency()))
		first, last = min(first, t.Due), max(last, t.Done)
		switch replies[i].Cache {
		case "hit":
			st.Hits++
		case "miss":
			st.Misses++
		}
	}
	st.P50MS = median(lat)
	st.Tail = tailOf(lat, tailPct)
	// Completions per second from the first arrival to the last
	// completion; for an overload step, over the last three quarters of
	// the window, after the fresh server's cold start.
	st.Throughput = float64(len(lat)) / (last - first).Seconds()
	if drain == 0 {
		st.Throughput = completionRate(timings, window/4, window)
	}
	st.Backlog = backlogAt(timings, window)
	st.Growth = backlogGrowth(timings, window/4, window, growthSamples)
	st.LateP99MS = percentile(late, 99)
	// A step meets the limit when nothing failed, its tail stays within
	// LimitMS, and its backlog did not grow: over the last three
	// quarters of the window it grew by at most 5% of the offered rate.
	// The first quarter is left out of the fit, where the fresh server's
	// cold caches build a queue that a sustainable rate then drains.
	st.Pass = st.Failed == 0 && st.Tail.Value <= e.spec.LimitMS && st.Growth <= 0.05*rate
	rc.logf("%s: step %.0f/s: %d requests, p50 %.2fms, %s %.2fms, %.1f/s, backlog %d growing %.1f/s, hits %d, late p99 %.2fms, setup %.3fs",
		e.spec.Name, rate, len(reqs), st.P50MS, st.Tail.Name(), st.Tail.Value, st.Throughput, st.Backlog, st.Growth, st.Hits, st.LateP99MS, st.SetupS)
	return st, nil
}

// dropUnsent returns the requests of a run that were sent, with their
// replies and timings.
func dropUnsent(reqs []request, replies []reply, ts []timing) ([]request, []reply, []timing) {
	var r []request
	var p []reply
	var t []timing
	for i := range ts {
		if ts[i].Err != errNotSent {
			r, p, t = append(r, reqs[i]), append(p, replies[i]), append(t, ts[i])
		}
	}
	return r, p, t
}

// completionRate is the number of requests completed within [from, to]
// per second.
func completionRate(ts []timing, from, to time.Duration) float64 {
	n := 0
	for _, t := range ts {
		if t.Err == nil && t.Done >= from && t.Done <= to {
			n++
		}
	}
	return float64(n) / (to - from).Seconds()
}

// nominalOf combines the runs of the nominal step, which offered the
// same requests at the same due times: the latency figures are taken
// over each request's best latency across the runs, the throughput and
// peak RSS are the runs' medians, and the step meets the limit when
// every run did.
func nominalOf(runs []*stepRun) *stepRun {
	best := make([]float64, runs[0].Requests)
	for i := range best {
		best[i] = math.Inf(1)
	}
	nom := &stepRun{Rate: runs[0].Rate, Requests: runs[0].Requests, Pass: true}
	var rss []float64
	for _, st := range runs {
		for i, t := range st.timings {
			if t.Err == nil {
				best[i] = min(best[i], ms(t.Latency()))
			}
		}
		rss = append(rss, st.PeakRSSMB)
		nom.Pass = nom.Pass && st.Pass
	}
	lat := best[:0]
	for _, l := range best {
		if !math.IsInf(l, 1) {
			lat = append(lat, l)
		}
	}
	nom.P50MS, nom.Tail = median(lat), tailOf(lat, tailPct)
	nom.Throughput, nom.PeakRSSMB = median(throughputs(runs)), median(rss)
	return nom
}

func throughputs(runs []*stepRun) []float64 {
	var xs []float64
	for _, st := range runs {
		xs = append(xs, st.Throughput)
	}
	return xs
}

// check validates every answer of a step, and compares the first
// CheckQueries distinct queries with sequential HSP run in process when
// limit > 0. It returns the recall over the compared queries.
func (e *httpEnv) check(eng *core.Engine, st *stepRun, limit int, r *report) (hit, total int) {
	ctx := context.Background()
	compared := make(map[int]bool)
	for i, t := range st.timings {
		if t.Err != nil && !isFailure(t.Err) {
			r.incorrect("step %.0f/s request %d: %v", st.Rate, i, t.Err)
			continue
		}
		if t.Err != nil {
			// A failed or refused request carries no answer to check.
			r.Failed++
			if _, seen := r.Detail["first_failure"]; !seen {
				r.Detail["first_failure"] = fmt.Sprintf("step %.0f/s request %d: %v", st.Rate, i, t.Err)
			}
			continue
		}
		q := st.reqs[i].Query
		resp, got, err := e.decode(st.replies[i].Body)
		if err != nil {
			r.incorrect("step %.0f/s request %d: decoding: %v", st.Rate, i, err)
			continue
		}
		if err := checkAnswer(e.ds, q, got); err != nil {
			r.incorrect("step %.0f/s request %d: %v", st.Rate, i, err)
			continue
		}
		key := st.reqs[i].Key
		if len(compared) >= limit || compared[key] {
			continue
		}
		compared[key] = true
		ref, err := eng.Search(ctx, q, core.HSP, core.Options{})
		if err != nil {
			r.incorrect("request %d: exact reference: %v", i, err)
			continue
		}
		want := tuplesOf(ref)
		h, n := recallOf(got, want)
		hit, total = hit+h, total+n
		if resp.Algorithm != core.LORA.String() {
			if err := compareExact(got, want); err != nil {
				r.incorrect("step %.0f/s request %d (%s) vs sequential HSP: %v", st.Rate, i, resp.Algorithm, err)
			}
		}
	}
	return hit, total
}

func (s httpSpec) run(rc *runCtx) (*report, error) {
	if rc.SeqServer == "" {
		return nil, errNoSeqServer
	}
	if rc.Repeats >= 0 {
		s.Mix = s.Mix.withRepeats(rc.Repeats)
	}
	r := &report{Detail: map[string]any{"mix": s.Mix}}
	env, err := s.newEnv()
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(env.ds)
	if rc.Traced {
		return s.traced(rc, env, eng, r)
	}
	runs := time.Duration(s.Runs)
	nomWindow := time.Duration(s.NominalShare*float64(rc.Window)) / runs
	nomStep, err := env.newStep(rc.Seed, 0, s.NominalRate, nomWindow)
	if err != nil {
		return nil, err
	}
	overStep, err := env.newStep(rc.Seed, 1, s.OverloadRate, rc.Window/runs-nomWindow)
	if err != nil {
		return nil, err
	}
	var noms, overs []*stepRun
	for i := 0; i < s.Runs; i++ {
		nom, err := env.offer(rc, nomStep, s.Drain)
		if err != nil {
			return nil, err
		}
		over, err := env.offer(rc, overStep, 0)
		if err != nil {
			return nil, err
		}
		noms, overs = append(noms, nom), append(overs, over)
	}
	nom := nominalOf(noms)
	// max_rate_qps is the best completion rate of the overload runs.
	var maxRate float64
	var setups []float64
	var hit, total int
	for i := range noms {
		limit := 0
		if i == 0 {
			limit = s.CheckQueries
		}
		h, n := env.check(eng, noms[i], limit, r)
		hit, total = hit+h, total+n
		env.check(eng, overs[i], 0, r)
		r.Attempted += noms[i].Requests + overs[i].Requests
		setups = append(setups, noms[i].SetupS, overs[i].SetupS)
		maxRate = max(maxRate, overs[i].Throughput)
	}
	r.set("setup_s", "s", median(setups))
	r.set("latency_p50_ms", "ms", nom.P50MS)
	r.set("latency_tail_ms", "ms", nom.Tail.Value)
	r.set("throughput_qps", "1/s", nom.Throughput)
	r.set("max_rate_qps", "1/s", maxRate)
	r.set("ok_ratio", "ratio", 1-float64(r.Failed)/float64(max(r.Attempted, 1)))
	r.set("peak_rss_mb", "MB", nom.PeakRSSMB)
	recall := 0.0
	if total > 0 {
		recall = float64(hit) / float64(total)
	}
	r.set("recall_at_k", "ratio", recall)
	r.Detail["steps"] = append(noms, overs...)
	r.Detail["nominal_qps"] = s.NominalRate
	r.Detail["overload_qps"] = s.OverloadRate
	r.Detail["latency_limit_ms"] = s.LimitMS
	r.Detail["latency_tail"] = nom.Tail
	rc.logf("%s: nominal p50 %.2fms, %s %.2fms over %d runs; max rate %.1f/s", s.Name, nom.P50MS, nom.Tail.Name(), nom.Tail.Value, s.Runs, maxRate)
	return r, nil
}

// traced runs the nominal step for the whole window on a fresh server,
// with a benchmark span around every HTTP round trip, and replays the
// step's cache misses through in-process engines for the engine's
// per-layer metrics and the tracing overhead.
func (s httpSpec) traced(rc *runCtx, env *httpEnv, eng *core.Engine, r *report) (*report, error) {
	sp, err := env.newStep(rc.Seed, 0, s.NominalRate, rc.Window)
	if err != nil {
		return nil, err
	}
	st, err := env.offer(rc, sp, s.Drain)
	if err != nil {
		return nil, err
	}
	env.check(eng, st, s.CheckQueries, r)
	r.Attempted += st.Requests
	tr := newTracer()
	var missOver, hitMS []float64
	var misses []*query.Query
	seen := make(map[int]bool)
	for i, t := range st.timings {
		if t.Err != nil {
			continue
		}
		tr.span("bench.http", i, t.Worker, st.started.Add(t.Sent), st.started.Add(t.Done))
		rtt := ms(t.Done - t.Sent)
		switch st.replies[i].Cache {
		case "hit":
			hitMS = append(hitMS, rtt)
		case "miss":
			var resp wireResponse
			if json.Unmarshal(st.replies[i].Body, &resp) == nil {
				missOver = append(missOver, rtt-resp.ElapsedMS)
			}
			if k := st.reqs[i].Key; !seen[k] && len(misses) < s.ReplayQueries {
				seen[k] = true
				misses = append(misses, st.reqs[i].Query)
			}
		}
	}
	r.set("server.miss_overhead_ms", "ms", median(missOver))
	r.set("server.hit_ms", "ms", median(hitMS))
	r.set("qcache.hit_ratio", "ratio", float64(st.Hits)/float64(max(st.Hits+st.Misses, 1)))
	r.set("qcache.evictions", "count", st.Evictions)
	r.set("loadgen.late_p99_ms", "ms", st.LateP99MS)
	p50, p50t, err := env.replay(misses, tr, r)
	if err != nil {
		return nil, err
	}
	r.set("obs.trace_overhead_pct", "%", 100*(p50t-p50)/p50)
	absent := tr.engineLayers(r.Metrics)
	r.Detail["absent_layers"] = absent
	r.Detail["steps"] = []*stepRun{st}
	r.Detail["replayed_misses"] = len(misses)
	r.Detail["replay_p50_untraced_ms"] = p50
	r.Detail["replay_p50_traced_ms"] = p50t
	tracePath := filepath.Join(rc.OutDir, fmt.Sprintf("%s-seed%d.trace.json", s.Name, rc.Seed))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	r.Detail["trace_file"] = tracePath
	rc.logf("%s: replayed %d misses, p50 %.2fms traced vs %.2fms untraced; absent layers %v", s.Name, len(misses), p50t, p50, absent)
	return r, nil
}

// replay re-runs the given cache-miss queries in process, on fresh
// engines over the server's dataset, as the server runs them (Auto,
// work counters on): once untraced, for the allocation per query, and
// once traced into tr. It returns the median latency of each pass; the
// server always traces, so this pairing is where the tracing cost
// shows. It also times the set-up split the server pays at start:
// dataset generation and index build.
func (e *httpEnv) replay(qs []*query.Query, tr *tracer, r *report) (p50, p50t float64, err error) {
	ctx := context.Background()
	t0 := time.Now()
	ds, err := synth.Generate(synth.GaodeLike(e.spec.N, dataSeed))
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	eng := core.NewEngine(ds)
	r.set("dataset.load_s", "s", t1.Sub(t0).Seconds())
	r.set("core.index_build_s", "s", time.Since(t1).Seconds())
	quiesce()
	var plain, traced []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, q := range qs {
		t := time.Now()
		if _, err := eng.Search(ctx, q, core.Auto, core.Options{CollectStats: true}); err != nil {
			r.incorrect("replay: %v", err)
		}
		plain = append(plain, ms(time.Since(t)))
	}
	runtime.ReadMemStats(&m1)
	n := float64(max(len(qs), 1))
	r.set("core.alloc_kb_per_query", "KiB", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n)
	r.set("core.mallocs_per_query", "count", float64(m1.Mallocs-m0.Mallocs)/n)

	eng = core.NewEngine(ds)
	quiesce()
	for i, q := range qs {
		_, d, err := tr.search(ctx, ds, eng, i, q, core.Auto, core.Options{})
		if err != nil {
			r.incorrect("replay: %v", err)
		}
		traced = append(traced, ms(d))
	}
	return median(plain), median(traced), nil
}
