package decision

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"acceptableads/internal/decision/api"
	"acceptableads/internal/engine"
	"acceptableads/internal/filter"
	"acceptableads/internal/xrand"
)

func TestExplainNamesWinningFilters(t *testing.T) {
	svc := newTestService(t, 1024)

	blocked := mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/")
	ex, _ := svc.ExplainProfile(blocked, "")
	if ex.Decision.Verdict != engine.Blocked {
		t.Fatalf("verdict = %v, want blocked", ex.Decision.Verdict)
	}
	if ex.Trail == nil || ex.Trail.Block == nil {
		t.Fatal("explanation carries no winning block filter")
	}
	if ex.Trail.Block.Filter != "||ads.example.com^" || ex.Trail.Block.List != "easylist" || ex.Trail.Block.Line == 0 {
		t.Errorf("block = %+v, want ||ads.example.com^ from easylist with a line", *ex.Trail.Block)
	}

	allowed := mustRequest(t, "http://ads.example.com/acceptable/ad.js", "http://news.example.org/")
	ex, _ = svc.ExplainProfile(allowed, "")
	if ex.Decision.Verdict != engine.Allowed {
		t.Fatalf("verdict = %v, want allowed", ex.Decision.Verdict)
	}
	if ex.Trail.Exception == nil || ex.Trail.Exception.List != "exceptionrules" {
		t.Errorf("exception = %+v, want a filter from exceptionrules", ex.Trail.Exception)
	}
}

// TestExplainCacheHitPinsSnapshot: an explained request that a plain
// /v1/match would serve from cache reports CacheHit against the pinned
// snapshot version — and the explain itself never perturbs the cache.
func TestExplainCacheHitPinsSnapshot(t *testing.T) {
	svc := newTestService(t, 1024)
	req := mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/")

	ex, _ := svc.ExplainProfile(req, "")
	if ex.CacheHit {
		t.Fatal("explain reported a cache hit before anything was cached")
	}
	if ex.Snapshot != svc.Snapshot().Version {
		t.Fatalf("explanation pinned snapshot %d, want %d", ex.Snapshot, svc.Snapshot().Version)
	}

	// Warm the cache the way a real client would.
	svc.MatchProfile(req, "")
	before := svc.Stats()

	ex, _ = svc.ExplainProfile(req, "")
	if !ex.CacheHit {
		t.Fatal("explain did not report the cached entry")
	}
	if ex.Snapshot != svc.Snapshot().Version {
		t.Fatalf("cache-hit explanation pinned snapshot %d, want %d", ex.Snapshot, svc.Snapshot().Version)
	}
	// The trail must be real (re-run), not reconstructed from the cache.
	if ex.Trail.Block == nil || ex.Trail.Verdict != "blocked" {
		t.Errorf("cache-hit trail is empty: %+v", ex.Trail)
	}

	after := svc.Stats()
	if before.Matches != after.Matches || before.Cache.Hits != after.Cache.Hits ||
		before.Cache.Misses != after.Cache.Misses {
		t.Errorf("explain perturbed serving stats: before %+v after %+v", before, after)
	}

	// A reload invalidates the cache; the explanation must say so.
	if _, err := svc.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	ex, _ = svc.ExplainProfile(req, "")
	if ex.CacheHit {
		t.Error("explain reported a cache hit across a snapshot swap")
	}
	if ex.Snapshot != svc.Snapshot().Version {
		t.Errorf("post-reload explanation pinned snapshot %d, want %d", ex.Snapshot, svc.Snapshot().Version)
	}
}

// TestExplainMatchDifferential: over an exotic generated corpus — including
// requests served from cache — /v1/explain's verdict and named filters are
// always identical to /v1/match's.
func TestExplainMatchDifferential(t *testing.T) {
	rng := xrand.New(20150808)
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, genFilter(rng))
	}
	svc, err := New(context.Background(), Config{
		Source: Lists(engine.NamedList{
			Name: "l", List: filter.ParseListString("l", strings.Join(lines, "\n")),
		}),
		CacheSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(svc, HandlerConfig{}))
	defer srv.Close()

	post := func(path string, q api.MatchRequest, out any) {
		t.Helper()
		body, _ := json.Marshal(q)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	docs := []string{"http://adzerk.net/", "http://first.example/", "http://track.io/"}
	agreed, cacheHits := 0, 0
	for i := 0; i < 1500; i++ {
		q := api.MatchRequest{URL: genMatchURL(rng), Document: docs[rng.Intn(len(docs))], Type: "image"}

		var m api.MatchResponse
		post("/v1/match", q, &m)
		var e api.ExplainResponse
		post("/v1/explain", q, &e)

		if e.Verdict != m.Verdict {
			t.Fatalf("iteration %d: explain verdict %q != match verdict %q for %+v",
				i, e.Verdict, m.Verdict, q)
		}
		if (e.BlockedBy == nil) != (m.BlockedBy == nil) ||
			(e.BlockedBy != nil && e.BlockedBy.Filter != m.BlockedBy.Filter) {
			t.Fatalf("iteration %d: blockedBy diverges: explain %+v match %+v", i, e.BlockedBy, m.BlockedBy)
		}
		if e.Trail == nil || e.Trail.Verdict != e.Verdict {
			t.Fatalf("iteration %d: trail verdict %v does not match result %q", i, e.Trail, e.Verdict)
		}
		if e.Verdict == "blocked" && (e.Trail.Block == nil || e.Trail.Block.Filter == "") {
			t.Fatalf("iteration %d: blocked explain names no filter", i)
		}
		agreed++
		if e.CacheHit {
			cacheHits++
		}
	}
	if cacheHits == 0 {
		t.Fatal("corpus never explained a cached decision; the differential proved nothing")
	}
	t.Logf("%d requests agreed, %d explained as cache hits", agreed, cacheHits)
}

// TestExplainHTTPTrace: /v1/explain echoes the inbound trace id in both
// the response header and the result body, and mints one when absent.
func TestExplainHTTPTrace(t *testing.T) {
	svc := newTestService(t, 1024)
	srv := httptest.NewServer(Handler(svc, HandlerConfig{}))
	defer srv.Close()

	body, _ := json.Marshal(api.MatchRequest{URL: "http://ads.example.com/x.js", Document: "http://news.example.org/", Type: "script"})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/explain", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "trace-for-test-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "trace-for-test-01" {
		t.Errorf("response %s = %q, want the inbound id echoed", TraceHeader, got)
	}
	var e api.ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Trace != "trace-for-test-01" {
		t.Errorf("result trace = %q, want the inbound id", e.Trace)
	}

	// Absent or oversized inbound ids get a minted one.
	req, _ = http.NewRequest(http.MethodPost, srv.URL+"/v1/explain", bytes.NewReader(body))
	req.Header.Set(TraceHeader, strings.Repeat("x", 100))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got == "" || len(got) > 64 {
		t.Errorf("oversized inbound id echoed or dropped: %q", got)
	}
}

// TestMetricsEndpoint: /metrics serves the text exposition with the
// attribution families, and the per-list hit counter moves after matches.
func TestMetricsEndpoint(t *testing.T) {
	svc := newTestService(t, 1024)
	srv := httptest.NewServer(Handler(svc, HandlerConfig{}))
	defer srv.Close()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	before := scrape()
	for _, want := range []string{
		"# TYPE aa_filter_hits_total counter\n",
		`aa_filter_hits_total{list="easylist"} 0`,
		`aa_filters_loaded{list="easylist"}`,
		"aa_snapshot_version 1\n",
	} {
		if !strings.Contains(before, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, before)
		}
	}

	svc.MatchProfile(mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/"), "")
	after := scrape()
	if !strings.Contains(after, `aa_filter_hits_total{list="easylist"} 1`) {
		t.Errorf("attribution counter did not move after a match:\n%s", after)
	}
}

// TestFilterStatsEndpoint: /debug/filters serves the top-N attribution.
func TestFilterStatsEndpoint(t *testing.T) {
	svc := newTestService(t, 1024)
	srv := httptest.NewServer(Handler(svc, HandlerConfig{}))
	defer srv.Close()

	svc.MatchProfile(mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/"), "")
	svc.MatchProfile(mustRequest(t, "http://ads.example.com/y.js", "http://news.example.org/"), "")

	resp, err := http.Get(srv.URL + "/debug/filters?n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res FilterStatsResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != svc.Snapshot().Version || res.Filters == 0 {
		t.Errorf("result header = %+v", res)
	}
	if len(res.Top) == 0 || res.Top[0].Filter != "||ads.example.com^" || res.Top[0].Hits != 2 {
		t.Errorf("top filters = %+v, want ||ads.example.com^ with 2 hits first", res.Top)
	}
	if res.Lists["easylist"].Fired != 1 {
		t.Errorf("list attribution = %+v, want easylist fired=1", res.Lists)
	}

	// Bad ?n= is a client error.
	resp, err = http.Get(srv.URL + "/debug/filters?n=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("n=-1 status = %d, want 400", resp.StatusCode)
	}
}
