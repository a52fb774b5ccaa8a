package main

// End-to-end drills over run, the binary's whole lifecycle: `make
// serve-smoke` runs TestServeSmoke and `make overload-smoke` runs
// TestServeOverload. Each serves the testdata lists on a loopback
// listener with the production flag defaults, drives the API through
// api.Client, then delivers SIGTERM on run's signal channel and asserts
// /readyz flips to 503 during the drain grace before a clean drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"acceptableads/internal/decision/api"
)

func TestServeSmoke(t *testing.T) {
	drive(t, smoke)
}

// TestServeOverload runs under a tiny admission limit (capacity 2, queue
// 2) so the hammering in overload is sure to exceed it.
func TestServeOverload(t *testing.T) {
	drive(t, overload, "-shed-capacity", "2", "-shed-queue", "2")
}

// drive runs aa-serve over the testdata lists with flags on top of the
// defaults, runs checks against its API, then SIGTERMs it and asserts the
// drain. The server is stopped and waited for whatever checks return.
func drive(t *testing.T, checks func(base string) error, flags ...string) {
	t.Helper()
	cfg := parseFlags(append([]string{
		"-easylist", "testdata/easylist.txt",
		"-whitelist", "testdata/exceptionrules.txt",
		// A window in which /readyz must be seen answering 503 before the
		// listener closes.
		"-drain-grace", "750ms",
	}, flags...))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(cfg, ln, sigs) }()

	// The listener is open before run starts serving, so the first
	// request waits in the accept backlog until it does.
	checkErr := checks(base)
	sigs <- syscall.SIGTERM
	drainErr := checkDrain(base)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if checkErr != nil {
		t.Fatal(checkErr)
	}
	if drainErr != nil {
		t.Fatal(drainErr)
	}
}

// checkDrain asserts /readyz answers 503 during the drain grace, while
// the listener still accepts.
func checkDrain(base string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err != nil {
			return fmt.Errorf("/readyz during drain: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/readyz did not flip to 503 during drain (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// smoke exercises every endpoint against the live server through the
// typed api.Client.
func smoke(base string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	c := api.NewClient(base, client)
	ctx := context.Background()

	// Probes answer before anything else is exercised.
	if err := checkProbe(client, base+"/healthz", http.StatusOK); err != nil {
		return err
	}
	if err := checkProbe(client, base+"/readyz", http.StatusOK); err != nil {
		return err
	}

	// The snapshot should be serving and non-empty, with the declared
	// easylist profile next to the implicit full one.
	lists, err := c.Lists(ctx)
	if err != nil {
		return err
	}
	if lists.Snapshot < 1 || lists.Filters == 0 {
		return fmt.Errorf("/v1/lists: empty snapshot: %+v", lists)
	}
	if len(lists.Profiles) != 2 || lists.Profiles[0] != "easylist" || lists.Profiles[1] != "full" {
		return fmt.Errorf("/v1/lists: profiles = %v, want [easylist full]", lists.Profiles)
	}

	// A blocked URL decides "blocked"; the repeat is a cache hit.
	blocked := api.MatchRequest{
		URL: "http://ads.example.com/banner.js", Document: "http://news.example.com/", Type: "script",
	}
	m, err := c.Match(ctx, blocked)
	if err != nil {
		return err
	}
	if m.Verdict != "blocked" || m.BlockedBy == nil {
		return fmt.Errorf("/v1/match: want blocked, got %+v", m)
	}
	if m, err = c.Match(ctx, blocked); err != nil {
		return err
	}
	if !m.Cached {
		return fmt.Errorf("/v1/match: repeat not served from cache: %+v", m)
	}

	// /v1/explain agrees with /v1/match and names the winning blocking
	// filter with its source list; the repeat above means the request is
	// currently cache-served, which the trail reports against the pinned
	// snapshot version.
	ex, err := c.Explain(ctx, blocked)
	if err != nil {
		return err
	}
	if ex.Verdict != "blocked" || ex.Trail == nil || ex.Trail.Block == nil {
		return fmt.Errorf("/v1/explain: want blocked with a block trail, got %+v", ex)
	}
	if ex.Trail.Block.Filter == "" || ex.Trail.Block.List != "easylist" || ex.Trail.Block.Line == 0 {
		return fmt.Errorf("/v1/explain: block trail lacks filter/list/line: %+v", ex.Trail.Block)
	}
	if !ex.CacheHit || ex.Snapshot != lists.Snapshot {
		return fmt.Errorf("/v1/explain: want cacheHit on pinned snapshot v%d, got %+v", lists.Snapshot, ex)
	}
	if ex.Profile != "full" {
		return fmt.Errorf("/v1/explain: resolved profile = %q, want full", ex.Profile)
	}

	// A whitelisted request names the winning exception filter.
	wl := api.MatchRequest{
		URL: "http://ads.example.com/acceptable/ad.png", Document: "http://news.example.com/", Type: "image",
	}
	if ex, err = c.Explain(ctx, wl); err != nil {
		return err
	}
	if ex.Verdict != "allowed" || ex.Trail == nil || ex.Trail.Exception == nil {
		return fmt.Errorf("/v1/explain: want allowed with an exception trail, got %+v", ex)
	}
	if ex.Trail.Exception.Filter == "" || ex.Trail.Exception.List != "exceptionrules" {
		return fmt.Errorf("/v1/explain: exception trail lacks filter/list: %+v", ex.Trail.Exception)
	}

	// The profile surface: under the easylist-only profile the exception
	// list is out of scope, so the same whitelisted request blocks.
	if err := smokeProfiles(ctx, c, client, base, wl); err != nil {
		return err
	}

	// Every response carries a trace id; an inbound one is honored.
	if err := checkTrace(client, base); err != nil {
		return err
	}

	// /metrics serves the Prometheus exposition with attribution families
	// (the profile traffic above makes the per-profile counters appear).
	if err := checkMetrics(client, base); err != nil {
		return err
	}

	// A batch pins one snapshot and one profile; a malformed entry fails
	// alone.
	b, err := c.MatchBatch(ctx, api.BatchRequest{Requests: []api.MatchRequest{
		blocked,
		{URL: "http://cdn.example.com/app.js", Document: "http://news.example.com/", Type: "script"},
		{URL: "", Document: "http://news.example.com/"},
	}})
	if err != nil {
		return err
	}
	if len(b.Results) != 3 {
		return fmt.Errorf("/v1/match-batch: want 3 results, got %d", len(b.Results))
	}
	if b.Results[0].Verdict != "blocked" || !b.Results[0].Cached {
		return fmt.Errorf("/v1/match-batch: first entry not a cached block: %+v", b.Results[0])
	}
	if b.Results[2].Error == "" {
		return fmt.Errorf("/v1/match-batch: malformed entry did not error: %+v", b.Results[2])
	}
	if b.Profile != "full" {
		return fmt.Errorf("/v1/match-batch: resolved profile = %q, want full", b.Profile)
	}

	// The element-hiding stylesheet includes the smoke list's selector.
	eh, err := c.ElemHide(ctx, api.ElemHideRequest{Document: "http://blog.example.com/"})
	if err != nil {
		return err
	}
	if eh.CSS == "" {
		return fmt.Errorf("/v1/elemhide: empty stylesheet")
	}

	// Reload bumps the snapshot version and purges the cache.
	rl, err := c.Reload(ctx)
	if err != nil {
		return err
	}
	if rl.Snapshot != lists.Snapshot+1 {
		return fmt.Errorf("/v1/reload: want snapshot v%d, got v%d", lists.Snapshot+1, rl.Snapshot)
	}
	if m, err = c.Match(ctx, blocked); err != nil {
		return err
	}
	if m.Cached {
		return fmt.Errorf("/v1/match: cache survived the reload: %+v", m)
	}

	// Rollback republishes the pre-reload snapshot as a new generation.
	rb, err := c.Rollback(ctx)
	if err != nil {
		return err
	}
	if rb.Snapshot != rl.Snapshot+1 || rb.RollbackOf != lists.Snapshot {
		return fmt.Errorf("/v1/rollback: want v%d rolling back to v%d, got %+v",
			rl.Snapshot+1, lists.Snapshot, rb)
	}
	after, err := c.Lists(ctx)
	if err != nil {
		return err
	}
	if after.RollbackOf != lists.Snapshot {
		return fmt.Errorf("/v1/lists: snapshot does not carry rollback provenance: %+v", after)
	}
	// Profiles ride through reload and rollback: the set is a property of
	// the configuration, re-registered on every rebuilt engine.
	if len(after.Profiles) != 2 {
		return fmt.Errorf("/v1/lists: profiles lost across reload+rollback: %v", after.Profiles)
	}
	// Walking past the oldest retained snapshot is a 409, not a crash.
	if _, err := c.Rollback(ctx); !api.IsStatus(err, http.StatusConflict) {
		return fmt.Errorf("POST /v1/rollback past ring: want 409, got %v", err)
	}

	// Method gating.
	resp, err := client.Get(base + "/v1/match")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		return fmt.Errorf("GET /v1/match: want 405, got %d", resp.StatusCode)
	}
	return nil
}

// overload saturates the admission controller and asserts the shed
// path: heavyweight /v1/match-batch requests pin the concurrency limit
// (a batch's admission weight covers the whole smoke-sized capacity)
// while waves of cache-missing /v1/match requests arrive on top. At
// least one match must be shed with 429 + Retry-After, nothing may 5xx,
// at least one batch must be admitted and served, and /healthz must keep
// answering while the API is saturated.
func overload(base string) error {
	client := &http.Client{Timeout: 30 * time.Second}

	// Saturate: the first batch occupies the full capacity, the rest fill
	// the bounded wait queue, so match waves below find the server busy.
	const nBatches = 3
	const batchSize = 4096
	type outcome struct {
		status int
		header http.Header
		err    error
	}
	batchRes := make(chan outcome, nBatches)
	for b := 0; b < nBatches; b++ {
		q := api.BatchRequest{Requests: make([]api.MatchRequest, 0, batchSize)}
		for i := 0; i < batchSize; i++ {
			q.Requests = append(q.Requests, api.MatchRequest{
				URL:      fmt.Sprintf("http://ads.example.com/overload/b%d/r%d.js", b, i),
				Document: "http://news.example.com/",
				Type:     "script",
			})
		}
		go func() {
			status, h, err := post(client, base+"/v1/match-batch", q)
			batchRes <- outcome{status, h, err}
		}()
	}

	const waveSize = 64
	const maxWaves = 10
	var saw429 int
	for wave := 0; wave < maxWaves && saw429 == 0; wave++ {
		results := make(chan outcome, waveSize)
		for i := 0; i < waveSize; i++ {
			// Distinct URLs so every request misses the decision cache and
			// holds its admission slot through a real engine match.
			q := api.MatchRequest{
				URL:      fmt.Sprintf("http://ads.example.com/overload/w%d/r%d.js", wave, i),
				Document: "http://news.example.com/",
				Type:     "script",
			}
			go func() {
				status, h, err := post(client, base+"/v1/match", q)
				results <- outcome{status, h, err}
			}()
		}
		for i := 0; i < waveSize; i++ {
			out := <-results
			if out.err != nil {
				return fmt.Errorf("overload wave %d: %w", wave, out.err)
			}
			switch out.status {
			case http.StatusOK:
			case http.StatusTooManyRequests:
				saw429++
				if out.header.Get("Retry-After") == "" {
					return fmt.Errorf("overload: 429 without Retry-After")
				}
			default:
				return fmt.Errorf("overload: unexpected status %d (only 200 and 429 are acceptable)", out.status)
			}
		}
		// Liveness must survive saturation.
		if err := checkProbe(client, base+"/healthz", http.StatusOK); err != nil {
			return fmt.Errorf("overload: %w", err)
		}
	}
	if saw429 == 0 {
		return fmt.Errorf("overload: no request shed across %d waves of %d", maxWaves, waveSize)
	}
	// Admitted heavyweight requests must complete: the shed path protects
	// their latency instead of queueing an unbounded backlog. A batch may
	// itself lose the queue race to a match wave and be shed; that is
	// shedding working, as long as one batch got through.
	var batchOK int
	for b := 0; b < nBatches; b++ {
		out := <-batchRes
		switch {
		case out.err != nil:
			return fmt.Errorf("overload: batch request failed: %w", out.err)
		case out.status == http.StatusOK:
			batchOK++
		case out.status == http.StatusTooManyRequests:
		default:
			return fmt.Errorf("overload: batch got status %d (only 200 and 429 are acceptable)", out.status)
		}
	}
	if batchOK == 0 {
		return fmt.Errorf("overload: every batch shed; admitted requests should still be served")
	}
	return nil
}

// post sends v as a JSON body and returns the reply's status and
// headers: the overload checks read the raw status that api.Client would
// turn into an error.
func post(client *http.Client, url string, v any) (int, http.Header, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header, nil
}

// checkProbe asserts one probe endpoint's status code.
func checkProbe(client *http.Client, url string, want int) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s: want %d, got %d", url, want, resp.StatusCode)
	}
	return nil
}

// checkTrace asserts the X-AA-Trace response header: minted when absent,
// echoed verbatim when the client sends one.
func checkTrace(client *http.Client, base string) error {
	for _, sent := range []string{"", "smoketrace01"} {
		req, err := http.NewRequest(http.MethodGet, base+"/v1/lists", nil)
		if err != nil {
			return err
		}
		if sent != "" {
			req.Header.Set("X-AA-Trace", sent)
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-AA-Trace"); got == "" || (sent != "" && got != sent) {
			return fmt.Errorf("/v1/lists: sent trace id %q, got %q back", sent, got)
		}
	}
	return nil
}

// checkMetrics asserts /metrics serves the Prometheus text format with
// the per-list filter-attribution families.
func checkMetrics(client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	for _, want := range []string{
		"# TYPE aa_filter_hits_total counter", "aa_snapshot_version", "decision_matches_total",
		"# TYPE aa_profile_requests_total counter", `aa_profile_requests_total{profile="full"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			return fmt.Errorf("/metrics: missing %q in %d-byte exposition", want, buf.Len())
		}
	}
	return nil
}

// smokeProfiles exercises the profile surface: a named profile flips the
// whitelisted request's verdict, the ?profile= query parameter wins over
// the body field, an unknown profile is a 400 naming the valid set, and
// /v1/diff reports the flip with the responsible exception filter.
func smokeProfiles(ctx context.Context, c *api.Client, client *http.Client, base string, wl api.MatchRequest) error {
	// Under the easylist-only profile the exception list is out of scope:
	// the request that full allows is blocked.
	easy := wl
	easy.Profile = "easylist"
	m, err := c.Match(ctx, easy)
	if err != nil {
		return err
	}
	if m.Verdict != "blocked" {
		return fmt.Errorf("/v1/match profile=easylist: want blocked, got %+v", m)
	}

	// The ?profile= query parameter beats the body field: the body still
	// says easylist, the URL says full, full wins — allowed again.
	body, err := json.Marshal(easy)
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/match?profile=full", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var qp api.MatchResponse
	err = json.NewDecoder(resp.Body).Decode(&qp)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || qp.Verdict != "allowed" {
		return fmt.Errorf("?profile=full over body easylist: status %d verdict %q, want 200 allowed",
			resp.StatusCode, qp.Verdict)
	}

	// Unknown profiles are a 400 naming the valid set.
	bad := wl
	bad.Profile = "nope"
	if _, err := c.Match(ctx, bad); !api.IsStatus(err, http.StatusBadRequest) ||
		!strings.Contains(err.Error(), "easylist") {
		return fmt.Errorf("unknown profile: want 400 naming the valid set, got %v", err)
	}

	// /v1/diff answers "would the Acceptable Ads exception list have
	// unblocked this request" in one call and names the filter responsible
	// for the flip with its source list and line.
	d, err := c.Diff(ctx, api.DiffRequest{
		URL: wl.URL, Document: wl.Document, Type: wl.Type,
		ProfileA: "easylist", ProfileB: "full",
	})
	if err != nil {
		return err
	}
	if !d.Flipped || d.A.Verdict != "blocked" || d.B.Verdict != "allowed" {
		return fmt.Errorf("/v1/diff: want a blocked->allowed flip, got %+v", d)
	}
	if d.Responsible == nil || d.Responsible.List != "exceptionrules" ||
		d.Responsible.Filter == "" || d.Responsible.Line == 0 {
		return fmt.Errorf("/v1/diff: responsible filter not attributed: %+v", d.Responsible)
	}
	return nil
}
