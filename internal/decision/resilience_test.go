package decision

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"acceptableads/internal/engine"
	"acceptableads/internal/obs"
)

// gatedSource blocks every Load after the first until released, so a
// test can hold a reload in flight while more callers pile on.
type gatedSource struct {
	mu      sync.Mutex
	loads   int
	entered chan struct{} // signaled when a gated Load begins
	release chan struct{} // closed to let gated Loads finish
}

func newGatedSource() *gatedSource {
	return &gatedSource{
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
}

func (s *gatedSource) Load(context.Context) ([]engine.NamedList, error) {
	s.mu.Lock()
	s.loads++
	n := s.loads
	s.mu.Unlock()
	if n > 1 {
		s.entered <- struct{}{}
		<-s.release
	}
	return testLists(), nil
}

func (s *gatedSource) loadCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads
}

// TestReloadSingleFlight is the regression test for reload coalescing: N
// concurrent POST-/v1/reload-shaped callers during one in-flight rebuild
// must produce exactly one Source.Load, and every caller must receive
// the same published snapshot.
func TestReloadSingleFlight(t *testing.T) {
	src := newGatedSource()
	svc, err := New(context.Background(), Config{Source: src})
	if err != nil {
		t.Fatal(err)
	}

	leaderDone := make(chan *Snapshot, 1)
	go func() {
		snap, err := svc.Reload(context.Background())
		if err != nil {
			t.Error(err)
		}
		leaderDone <- snap
	}()
	<-src.entered // the leader is inside Source.Load now

	const followers = 8
	results := make(chan *Snapshot, followers)
	var started sync.WaitGroup
	started.Add(followers)
	for i := 0; i < followers; i++ {
		go func() {
			started.Done()
			snap, err := svc.Reload(context.Background())
			if err != nil {
				t.Error(err)
			}
			results <- snap
		}()
	}
	started.Wait()
	// Give the followers a beat to attach to the flight before releasing
	// the leader; a follower that misses it would run its own Load and
	// fail the load-count assertion below.
	time.Sleep(50 * time.Millisecond)
	close(src.release)

	leaderSnap := <-leaderDone
	for i := 0; i < followers; i++ {
		select {
		case snap := <-results:
			if snap != leaderSnap {
				t.Fatalf("follower %d got snapshot %p (v%d), leader published %p (v%d)",
					i, snap, snap.Version, leaderSnap, leaderSnap.Version)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("follower never returned")
		}
	}
	if got := src.loadCount(); got != 2 { // startup + the coalesced reload
		t.Errorf("Source.Load called %d times, want 2", got)
	}
	if v := svc.Snapshot().Version; v != 2 {
		t.Errorf("snapshot version = %d, want 2 (one rebuild for all callers)", v)
	}
	if st := svc.Stats(); st.ReloadsCoalesced != followers {
		t.Errorf("coalesced = %d, want %d", st.ReloadsCoalesced, followers)
	}
}

// TestReloadFollowerHonorsContext: a follower whose ctx dies while
// attached returns ctx's error without disturbing the leader's rebuild.
func TestReloadFollowerHonorsContext(t *testing.T) {
	src := newGatedSource()
	svc, err := New(context.Background(), Config{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if _, err := svc.Reload(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	<-src.entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Reload(ctx); err != context.Canceled {
		t.Errorf("cancelled follower = %v, want context.Canceled", err)
	}

	close(src.release)
	<-leaderDone
	if v := svc.Snapshot().Version; v != 2 {
		t.Errorf("leader's reload did not publish: version %d", v)
	}
}

// TestReadinessLifecycle walks /readyz through serve -> drain -> serve.
func TestReadinessLifecycle(t *testing.T) {
	svc := newTestService(t, 0)
	srv := httptest.NewServer(Handler(svc, HandlerConfig{}))
	defer srv.Close()

	status := func(path string) int {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if !svc.Ready() || status("/readyz") != http.StatusOK {
		t.Fatal("fresh service not ready")
	}
	svc.SetDraining(true)
	if svc.Ready() {
		t.Fatal("draining service reports ready")
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", got)
	}
	// Liveness is orthogonal: the process still answers.
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", got)
	}
	svc.SetDraining(false)
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after drain cancelled = %d, want 200", got)
	}
}

// TestEndpointPanicContained: a panicking handler yields a 500 and a
// panic counter bump, not a dead process.
func TestEndpointPanicContained(t *testing.T) {
	reg := obs.NewRegistry()
	h := endpoint(HandlerConfig{Obs: reg, RequestTimeout: time.Second},
		endpointSpec{name: "boom", method: http.MethodGet, weight: 1},
		func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
			panic("kaboom")
		})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking endpoint = %d, want 500", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "internal error") {
		t.Errorf("panic response body = %q", rr.Body.String())
	}
	if got := reg.Counter("decision.http.boom.panics").Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	if got := reg.Counter("decision.http.boom.errors").Value(); got != 1 {
		t.Errorf("error counter = %d, want 1", got)
	}

	// A panic after the response started cannot be turned into a 500;
	// containment still keeps the process alive and counts it.
	h2 := endpoint(HandlerConfig{Obs: reg, RequestTimeout: time.Second},
		endpointSpec{name: "boom2", method: http.MethodGet, weight: 1},
		func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			panic("late kaboom")
		})
	rr = httptest.NewRecorder()
	h2.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/boom2", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("late panic rewrote the status to %d", rr.Code)
	}
	if got := reg.Counter("decision.http.boom2.panics").Value(); got != 1 {
		t.Errorf("late panic counter = %d, want 1", got)
	}
}

// TestPoisonFilterQuarantinedThroughHTTP is the poison-pill drill end to
// end: a filter that panics on match is quarantined on first contact,
// the request is answered (fail-open), and the quarantine is visible in
// stats and metrics.
func TestPoisonFilterQuarantinedThroughHTTP(t *testing.T) {
	svc := newTestService(t, 1024)
	srv := httptest.NewServer(Handler(svc, HandlerConfig{}))
	defer srv.Close()

	const poisoned = "||ads.example.com^"
	if n := svc.Snapshot().Engine.PoisonFilter(poisoned); n == 0 {
		t.Fatalf("PoisonFilter(%q) armed no filter", poisoned)
	}

	const q = `{"url":"http://ads.example.com/x.js","document":"http://news.example.org/","type":"script"}`
	resp := postMatch(t, srv.Client(), srv.URL, q)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match against a poisoned filter = %d, want 200 (contained)", resp.StatusCode)
	}

	// The poisoned filter is out of service: the verdict it used to
	// produce is gone, and the quarantine is reported.
	d, _, _ := svc.MatchProfile(mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/"), "")
	if d.Verdict != engine.NoMatch {
		t.Fatalf("verdict after quarantine = %v, want no-match (filter disabled)", d.Verdict)
	}
	st := svc.Stats()
	if st.QuarantinedFilters != 1 {
		t.Errorf("QuarantinedFilters = %d, want 1", st.QuarantinedFilters)
	}
	quar := svc.Snapshot().Engine.Quarantined()
	if len(quar) != 1 || quar[0].Filter != poisoned {
		t.Errorf("quarantine report = %+v, want %q", quar, poisoned)
	}

	// Unpoisoned filters on the same snapshot keep working.
	d, _, _ = svc.MatchProfile(mustRequest(t, "http://track.io/r.js", "http://news.example.org/"), "")
	if d.Verdict != engine.Blocked {
		t.Fatalf("unrelated filter after quarantine = %v, want blocked", d.Verdict)
	}

	// /metrics reflects it.
	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "aa_filters_quarantined 1") {
		t.Error("/metrics does not report aa_filters_quarantined 1")
	}
}

// TestDiffPoisonFilterQuarantined: a filter that panics under Diff goes
// through the same containment as a match — quarantined, counted and
// recorded on the flight-recorder ring — and the diff is answered by the
// retry without it.
func TestDiffPoisonFilterQuarantined(t *testing.T) {
	svc := newProfileService(t, 1024)
	const poisoned = "||ads.example.com^"
	if n := svc.Snapshot().Engine.PoisonFilter(poisoned); n == 0 {
		t.Fatalf("PoisonFilter(%q) armed no filter", poisoned)
	}
	req := mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/")
	res, _, err := svc.Diff(req, "easylist", "full")
	if err != nil {
		t.Fatal(err)
	}
	if res.A.Verdict != engine.NoMatch.String() || res.B.Verdict != engine.NoMatch.String() {
		t.Fatalf("diff after quarantine = %+v, want no-match on both sides (filter disabled)", res)
	}
	if got := svc.Stats().QuarantinedFilters; got != 1 {
		t.Errorf("QuarantinedFilters = %d, want 1", got)
	}
	var last obs.Event
	if evs := obs.DefaultRing.Events(); len(evs) > 0 {
		last = evs[len(evs)-1]
	}
	if last.Name != "filter.quarantined" || !strings.Contains(last.Detail, poisoned) {
		t.Errorf("last flight-recorder event = %+v, want the diff's filter.quarantined for %q", last, poisoned)
	}
}
