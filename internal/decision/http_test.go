package decision

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"acceptableads/internal/engine"
	"acceptableads/internal/obs"
)

// TestDecodeRejectsTrailingData: a body must be exactly one JSON value.
// json.Decoder stops at the end of the first value, so a second object or
// trailing junk used to be served as if well-formed; trailing whitespace
// (curl's final newline) stays acceptable.
func TestDecodeRejectsTrailingData(t *testing.T) {
	svc := newTestService(t, 64)
	h := Handler(svc, HandlerConfig{})
	const match = `{"url":"http://ads.example.com/x.js","document":"http://news.example.org/","type":"script"}`
	const batch = `{"requests":[` + match + `]}`
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/match", match, http.StatusOK},
		{"/v1/match", match + "\n", http.StatusOK},
		{"/v1/match", " " + match + " \r\n\t", http.StatusOK},
		{"/v1/match", match + match, http.StatusBadRequest},
		{"/v1/match", match + "\n" + match, http.StatusBadRequest},
		{"/v1/match", match + " junk", http.StatusBadRequest},
		{"/v1/match", match + "]", http.StatusBadRequest},
		{"/v1/match", match + "0", http.StatusBadRequest},
		{"/v1/match-batch", batch, http.StatusOK},
		{"/v1/match-batch", batch + "\n", http.StatusOK},
		{"/v1/match-batch", batch + batch, http.StatusBadRequest},
		{"/v1/match-batch", batch + " junk", http.StatusBadRequest},
		{"/v1/match-batch", batch + "}", http.StatusBadRequest},
	}
	for _, c := range cases {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rr.Code != c.want {
			t.Errorf("POST %s %q: status %d, want %d (%s)", c.path, c.body, rr.Code, c.want, rr.Body)
		}
	}
}

// TestOverlongURLIs400: a request URL past the engine's length bound is
// the client's error, answered 400 before any matching.
func TestOverlongURLIs400(t *testing.T) {
	h := Handler(newTestService(t, 64), HandlerConfig{})
	body := `{"url":"http://x.com/` + strings.Repeat("a", 32<<10) + `"}`
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader(body)))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", rr.Code, rr.Body)
	}
}

// TestBatchBookkeeping: a batch books its decisions once, in bulk — the
// totals must still be one per decision, and a batch the deadline cut off
// before its first decision books nothing.
func TestBatchBookkeeping(t *testing.T) {
	svc := newTestService(t, 64)
	reqs := make([]*engine.Request, 0, 100)
	for i := 0; i < 100; i++ {
		reqs = append(reqs, mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/"))
	}
	if _, _, _, _, err := svc.MatchBatchProfile(context.Background(), reqs, ""); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Matches != 100 || st.ProfileRequests["full"] != 100 {
		t.Fatalf("after a 100-request batch: matches=%d profile=%v, want 100 each", st.Matches, st.ProfileRequests)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, _, err := svc.MatchBatchProfile(ctx, reqs, ""); err == nil {
		t.Fatal("cancelled batch ran to completion")
	}
	if st := svc.Stats(); st.Matches != 100 || st.ProfileRequests["full"] != 100 {
		t.Fatalf("a batch cut off before its first decision was booked: matches=%d profile=%v", st.Matches, st.ProfileRequests)
	}
}

// TestCacheHitDerivesNothing: the engine.request.derivations counter moves
// once when a request reaches the index and not at all when the decision
// cache answers — NewRequest plus a cache hit does key-side work only.
func TestCacheHitDerivesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	svc, err := New(context.Background(), Config{
		Source: Lists(testLists()...), CacheSize: 64, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	derivations := reg.Counter("engine.request.derivations")
	const url, doc = "http://ads.example.com/x.js", "http://news.example.org/"
	if _, cached, _ := svc.MatchProfile(mustRequest(t, url, doc), ""); cached {
		t.Fatal("first match served from cache")
	}
	if got := derivations.Value(); got != 1 {
		t.Fatalf("derivations after one miss = %d, want 1", got)
	}
	for i := 0; i < 10; i++ {
		if _, cached, _ := svc.MatchProfile(mustRequest(t, url, doc), ""); !cached {
			t.Fatal("repeat match missed the cache")
		}
	}
	if got := derivations.Value(); got != 1 {
		t.Errorf("derivations after ten cache hits on fresh requests = %d, want still 1", got)
	}
	if hits := svc.Cache().Stats().Hits; hits != 10 {
		t.Errorf("cache hits = %d, want 10", hits)
	}
}
