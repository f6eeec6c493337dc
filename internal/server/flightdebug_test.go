package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/obs/flight"
	"spatialseq/internal/testutil"
)

// newFlightTestServer builds a server whose recorder retains everything
// (1ns floor: every query is slow and carries a capture).
func newFlightTestServer(t *testing.T) (*httptest.Server, *dataset.Dataset, *flight.Recorder) {
	t.Helper()
	rng := rand.New(rand.NewSource(73))
	ds := testutil.RandDataset(rng, 400, 3, 4, 100)
	rec := flight.New(flight.Config{
		Floor:       time.Nanosecond,
		KeepSlowest: 8,
		Dataset:     flight.DatasetInfo{Kind: "synth", Family: "gaode", N: 400, Seed: 73},
	})
	srv := NewWith(core.NewEngine(ds), Config{Flight: rec})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, ds, rec
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestXRequestIDHonored(t *testing.T) {
	ts, _ := newTestServer(t)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "upstream-id_1.2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "upstream-id_1.2" {
		t.Errorf("valid client request ID replaced: got %q", got)
	}
}

func TestXRequestIDRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	minted := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, bad := range []string{
		"has spaces",
		"semi;colon",
		strings.Repeat("x", 65),
		"quote\"break",
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		req.Header.Set("X-Request-ID", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Request-ID")
		if got == bad || !minted.MatchString(got) {
			t.Errorf("invalid client ID %q produced response ID %q, want a minted 16-hex ID", bad, got)
		}
	}
}

func TestDebugQueriesJSON(t *testing.T) {
	ts, ds, _ := newFlightTestServer(t)
	// One engine run (miss), then the identical query again (hit).
	for i := 0; i < 2; i++ {
		resp, body := postSearch(t, ts, searchReq(ds))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d status = %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := getBody(t, ts.URL+"/debug/queries")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	var dq debugQueriesResponse
	if err := json.Unmarshal(body, &dq); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if dq.Observed != 2 {
		t.Errorf("observed = %d, want 2 (one miss, one hit)", dq.Observed)
	}
	if !dq.ThresholdActive || dq.ThresholdMS <= 0 {
		t.Errorf("threshold = (%v, %v), want an active floor", dq.ThresholdActive, dq.ThresholdMS)
	}
	hits, misses := 0, 0
	for _, r := range dq.Recent {
		if r.CacheHit {
			hits++
		} else {
			misses++
		}
	}
	if hits != 1 || misses != 1 {
		t.Errorf("recent records: %d hits, %d misses, want 1/1", hits, misses)
	}
	for _, r := range dq.Recent {
		if !r.CacheHit && len(r.Phases) == 0 {
			t.Error("engine-run record carries no phase timings")
		}
		if r.RequestID == "" {
			t.Error("record has no request ID")
		}
	}

	// ?n= limits both lists.
	_, body = getBody(t, ts.URL+"/debug/queries?n=1")
	var limited debugQueriesResponse
	if err := json.Unmarshal(body, &limited); err != nil {
		t.Fatal(err)
	}
	if len(limited.Recent) != 1 || len(limited.Slowest) != 1 {
		t.Errorf("n=1 returned %d recent, %d slowest", len(limited.Recent), len(limited.Slowest))
	}
	if resp, _ := getBody(t, ts.URL+"/debug/queries?n=zero"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n status = %d", resp.StatusCode)
	}
}

func TestDebugQueriesHTML(t *testing.T) {
	ts, ds, _ := newFlightTestServer(t)
	if resp, body := postSearch(t, ts, searchReq(ds)); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d: %s", resp.StatusCode, body)
	}
	resp, body := getBody(t, ts.URL+"/debug/queries?format=html")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	page := string(body)
	for _, want := range []string{"query flight recorder", "<table>", "hsp"} {
		if !strings.Contains(page, want) {
			t.Errorf("HTML page missing %q", want)
		}
	}
	if resp, _ := getBody(t, ts.URL+"/debug/queries?format=xml"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format status = %d", resp.StatusCode)
	}
}

func TestDebugCaptureEndpoint(t *testing.T) {
	ts, ds, _ := newFlightTestServer(t)
	if resp, body := postSearch(t, ts, searchReq(ds)); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d: %s", resp.StatusCode, body)
	}
	resp, body := getBody(t, ts.URL+"/debug/queries/capture")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var cf flight.CaptureFile
	if err := json.Unmarshal(body, &cf); err != nil {
		t.Fatalf("capture not JSON: %v", err)
	}
	if cf.Schema != flight.CaptureSchemaVersion {
		t.Errorf("schema = %d", cf.Schema)
	}
	if cf.Dataset.Kind != "synth" || cf.Dataset.Family != "gaode" {
		t.Errorf("dataset provenance = %+v", cf.Dataset)
	}
	if len(cf.Records) == 0 {
		t.Fatal("capture holds no records although every query is slow")
	}
	for _, r := range cf.Records {
		if r.Capture == nil {
			t.Error("exported record has no capture payload")
		}
	}
}

func TestFlightAndProcessMetricsExposed(t *testing.T) {
	ts, ds, _ := newFlightTestServer(t)
	if resp, body := postSearch(t, ts, searchReq(ds)); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d: %s", resp.StatusCode, body)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	text := string(body)
	for _, want := range []string{
		"spatialseq_build_info{revision=",
		"spatialseq_uptime_seconds ",
		"spatialseq_goroutines ",
		"spatialseq_slow_query_threshold_seconds ",
		"spatialseq_query_latency_p99_seconds ",
		"spatialseq_flight_observed 1",
		"spatialseq_flight_slow 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestDebugQueriesConcurrent(t *testing.T) {
	ts, ds, _ := newFlightTestServer(t)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 10; j++ {
				resp, body := postSearch(t, ts, searchReq(ds))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("search status = %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 20; j++ {
				if resp, _ := getBody(t, ts.URL+"/debug/queries"); resp.StatusCode != http.StatusOK {
					t.Errorf("debug status = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		<-done
	}
	_, body := getBody(t, ts.URL+"/debug/queries")
	var dq debugQueriesResponse
	if err := json.Unmarshal(body, &dq); err != nil {
		t.Fatal(err)
	}
	if dq.Observed != 40 {
		t.Errorf("observed = %d, want 40", dq.Observed)
	}
}
