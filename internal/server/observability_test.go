package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/obs"
	"spatialseq/internal/testutil"
)

func searchReq(ds *dataset.Dataset) SearchRequest {
	o1, o2 := ds.Object(0), ds.Object(1)
	return SearchRequest{
		Algorithm: "hsp",
		K:         3,
		Beta:      5,
		Example: []ExampleObject{
			{X: o1.Loc.X, Y: o1.Loc.Y, Category: ds.CategoryName(o1.Category)},
			{X: o2.Loc.X, Y: o2.Loc.Y, Category: ds.CategoryName(o2.Category)},
		},
	}
}

// expositionLine matches one valid Prometheus text-format line (comment
// or sample).
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9+\-.eEInf]+)$`)

func TestMetricsEndpoint(t *testing.T) {
	ts, ds := newTestServer(t)
	resp, body := postSearch(t, ts, searchReq(ds))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d: %s", resp.StatusCode, body)
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", mr.StatusCode)
	}
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mr.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	wantLines := []string{
		// the /metrics request itself is in flight while rendering
		`spatialseq_http_in_flight_requests 1`,
		`spatialseq_http_requests_total{endpoint="/search",code="200"} 1`,
		`spatialseq_search_duration_seconds_bucket{algorithm="hsp",le="+Inf"} 1`,
		`spatialseq_search_duration_seconds_count{algorithm="hsp"} 1`,
		`spatialseq_qcache_misses 1`,
		`spatialseq_qcache_hits 0`,
		`spatialseq_qcache_evictions 0`,
		`spatialseq_qcache_entries 1`,
	}
	for _, want := range wantLines {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// the engine ran once, so work counters must be populated
	for _, counter := range []string{"subspaces", "subspaces_pruned", "candidates", "tuples"} {
		if !strings.Contains(text, `spatialseq_search_work_total{counter="`+counter+`"}`) {
			t.Errorf("metrics output missing work counter %q", counter)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, path := range []string{"/healthz", "/stats", "/categories", "/metrics"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Errorf("POST %s: Allow = %q, want GET", path, allow)
		}
		if err != nil || er.Error == "" {
			t.Errorf("POST %s: expected JSON error body, got err=%v", path, err)
		}
	}
	for _, path := range []string{"/search", "/snap"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Errorf("GET %s: Allow = %q, want POST", path, allow)
		}
	}
}

func TestSearchIncludeStats(t *testing.T) {
	ts, ds := newTestServer(t)
	req := searchReq(ds)
	req.IncludeStats = true
	for round := 0; round < 2; round++ {
		resp, body := postSearch(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
		// include_stats must always describe this execution, so even a
		// repeat request bypasses the cache
		if got := resp.Header.Get("X-Cache"); got != "bypass" {
			t.Errorf("round %d: X-Cache = %q, want bypass", round, got)
		}
		var sr SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Stats == nil {
			t.Fatal("stats missing from response")
		}
		if len(sr.Stats.Phases) == 0 {
			t.Fatal("phases missing from response")
		}
		var sum float64
		for _, p := range sr.Stats.Phases {
			if p.DurationMS < 0 {
				t.Errorf("phase %s: negative duration %g", p.Name, p.DurationMS)
			}
			if p.Count <= 0 {
				t.Errorf("phase %s: count = %d", p.Name, p.Count)
			}
			sum += p.DurationMS
		}
		if sum <= 0 {
			t.Error("phase durations sum to zero")
		}
		if sum > sr.ElapsedMS+0.05 {
			t.Errorf("phase sum %.4fms exceeds elapsed %.4fms", sum, sr.ElapsedMS)
		}
		if sr.Stats.Work.Tuples == 0 {
			t.Error("work counters all zero")
		}
	}

	// without include_stats the field stays absent
	req.IncludeStats = false
	_, body := postSearch(t, ts, req)
	if bytes.Contains(body, []byte(`"stats"`)) {
		t.Errorf("stats present without include_stats: %s", body)
	}
}

func TestRequestIDHeader(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Errorf("X-Request-ID = %q", id)
	}
}

func TestRequestLog(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds := testutil.RandDataset(rng, 200, 3, 4, 100)
	var buf bytes.Buffer
	srv := NewWith(core.NewEngine(ds), Config{Logger: obs.NewLogger(&buf, slog.LevelInfo)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var rec struct {
		Msg        string  `json:"msg"`
		ID         string  `json:"id"`
		Method     string  `json:"method"`
		Path       string  `json:"path"`
		Status     int     `json:"status"`
		Bytes      int64   `json:"bytes"`
		DurationMS float64 `json:"duration_ms"`
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		if rec.Msg == "request" && rec.Path == "/healthz" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no request log record for /healthz in %q", buf.String())
	}
	if rec.Method != http.MethodGet || rec.Status != http.StatusOK {
		t.Errorf("log record = %+v", rec)
	}
	if rec.ID != resp.Header.Get("X-Request-ID") {
		t.Errorf("log id %q != header id %q", rec.ID, resp.Header.Get("X-Request-ID"))
	}
	if rec.Bytes == 0 || rec.DurationMS < 0 {
		t.Errorf("log record = %+v", rec)
	}
}

func TestPprofGate(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds := testutil.RandDataset(rng, 100, 3, 4, 100)
	eng := core.NewEngine(ds)

	off := httptest.NewServer(New(eng))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status = %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(NewWith(eng, Config{EnablePprof: true}))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status = %d, want 200", resp.StatusCode)
	}
}
