package decision

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"acceptableads/internal/engine"
	"acceptableads/internal/filter"
	"acceptableads/internal/xrand"
)

func testLists(extra ...string) []engine.NamedList {
	easy := "||ads.example.com^\n||track.io^$script\n/banner/*$image\n##.ad-box"
	if len(extra) > 0 {
		easy += "\n" + strings.Join(extra, "\n")
	}
	return []engine.NamedList{
		{Name: "easylist", List: filter.ParseListString("easylist", easy)},
		{Name: "exceptionrules", List: filter.ParseListString("exceptionrules",
			"@@||ads.example.com/acceptable/$script\nnews.example.org#@#.ad-box")},
	}
}

func newTestService(t testing.TB, cacheSize int) *Service {
	t.Helper()
	svc, err := New(context.Background(), Config{
		Source: Lists(testLists()...), CacheSize: cacheSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestServiceMatchAndCache(t *testing.T) {
	svc := newTestService(t, 1024)

	req := mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/")
	d, cached, _ := svc.MatchProfile(req, "")
	if d.Verdict != engine.Blocked || cached {
		t.Fatalf("first match = %v cached=%v, want blocked uncached", d.Verdict, cached)
	}
	d2, cached, _ := svc.MatchProfile(req, "")
	if !cached {
		t.Fatal("repeat match not served from cache")
	}
	if !reflect.DeepEqual(d, d2) {
		t.Fatalf("cached decision differs: %+v vs %+v", d, d2)
	}

	allowed := mustRequest(t, "http://ads.example.com/acceptable/ad.js", "http://news.example.org/")
	if d, _, _ := svc.MatchProfile(allowed, ""); d.Verdict != engine.Allowed {
		t.Fatalf("exception verdict = %v, want allowed", d.Verdict)
	}

	st := svc.Stats()
	if st.Matches != 3 || st.Cache == nil || st.Cache.Hits != 1 {
		t.Errorf("stats = %+v, want 3 matches / 1 hit", st)
	}
}

func TestSitekeyBypassesCache(t *testing.T) {
	svc := newTestService(t, 1024)
	req := mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/")
	req.Sitekey = "c2l0ZWtleQ"
	for i := 0; i < 2; i++ {
		if _, cached, _ := svc.MatchProfile(req, ""); cached {
			t.Fatal("sitekey request served from cache")
		}
	}
	if svc.Cache().Len() != 0 {
		t.Errorf("sitekey decision was inserted into the cache")
	}
}

func TestReloadSwapsSnapshotAndPurgesCache(t *testing.T) {
	svc := newTestService(t, 1024)
	req := mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/")
	svc.MatchProfile(req, "")
	svc.MatchProfile(req, "")
	if svc.Cache().Len() == 0 {
		t.Fatal("decision never cached")
	}

	v1 := svc.Snapshot().Version
	snap, err := svc.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != v1+1 {
		t.Fatalf("reload version = %d, want %d", snap.Version, v1+1)
	}
	if svc.Snapshot() != snap {
		t.Fatal("Snapshot() does not return the reloaded snapshot")
	}
	if svc.Cache().Len() != 0 {
		t.Fatal("cache not purged on snapshot swap")
	}
	if _, cached, _ := svc.MatchProfile(req, ""); cached {
		t.Fatal("match served from cache right after a swap")
	}
}

// flakySource fails every Load after the first n.
type flakySource struct {
	mu    sync.Mutex
	loads int
	okFor int
}

func (s *flakySource) Load(context.Context) ([]engine.NamedList, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	if s.loads > s.okFor {
		return nil, fmt.Errorf("list server down (load %d)", s.loads)
	}
	return testLists(), nil
}

func TestReloadFailureKeepsOldSnapshot(t *testing.T) {
	src := &flakySource{okFor: 1}
	svc, err := New(context.Background(), Config{Source: src, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := svc.Snapshot()

	if _, err := svc.Reload(context.Background()); err == nil {
		t.Fatal("reload against a dead source succeeded")
	}
	if svc.Snapshot() != before {
		t.Fatal("failed reload replaced the snapshot")
	}
	// Degraded, not down: matching still answers on the old snapshot.
	req := mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/")
	if d, _, _ := svc.MatchProfile(req, ""); d.Verdict != engine.Blocked {
		t.Fatalf("verdict after failed reload = %v, want blocked", d.Verdict)
	}
	if st := svc.Stats(); st.ReloadFailures != 1 {
		t.Errorf("reload failures = %d, want 1", st.ReloadFailures)
	}
}

func TestMatchBatchPinsOneSnapshot(t *testing.T) {
	svc := newTestService(t, 1024)
	reqs := []*engine.Request{
		mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/"),
		mustRequest(t, "http://fine.example.net/app.js", "http://news.example.org/"),
		mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/"),
	}
	decisions, cached, snap, _, err := svc.MatchBatchProfile(context.Background(), reqs, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 3 || len(cached) != 3 {
		t.Fatalf("batch sizes: %d decisions, %d flags", len(decisions), len(cached))
	}
	if snap != svc.Snapshot() {
		t.Fatal("MatchBatchProfile did not return the snapshot it matched against")
	}
	if decisions[0].Verdict != engine.Blocked || decisions[1].Verdict != engine.NoMatch {
		t.Fatalf("verdicts = %v, %v", decisions[0].Verdict, decisions[1].Verdict)
	}
	if cached[0] || !cached[2] {
		t.Fatalf("cached flags = %v, want duplicate entry served from cache", cached)
	}
	if !reflect.DeepEqual(decisions[0], decisions[2]) {
		t.Fatal("duplicate entries decided differently inside one batch")
	}
}

func TestMatchBatchHonorsContext(t *testing.T) {
	svc := newTestService(t, 1024)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []*engine.Request{
		mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/"),
	}
	if _, _, _, _, err := svc.MatchBatchProfile(ctx, reqs, ""); err == nil {
		t.Fatal("MatchBatchProfile ran to completion on a cancelled context")
	}
}

// TestCaseSensitiveFiltersNotCrossCached is the regression test for the
// cache key: $match-case and regex filters match the original-cased URL,
// so two URLs differing only in case can decide differently — the cache
// must keep them apart and every cached decision must equal a fresh one.
func TestCaseSensitiveFiltersNotCrossCached(t *testing.T) {
	svc, err := New(context.Background(), Config{
		Source: Lists(engine.NamedList{
			Name: "l", List: filter.ParseListString("l", "/BannerAd/$match-case"),
		}),
		CacheSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := svc.Snapshot()
	// Prime the cache with the non-matching lowercase variant, then query
	// the matching cased one (and vice versa): a lowered-URL key would
	// serve the first verdict for both.
	urls := []string{
		"http://example.com/bannerad/1.gif",
		"http://example.com/BannerAd/1.gif",
	}
	wants := []engine.Verdict{engine.NoMatch, engine.Blocked}
	for round := 0; round < 2; round++ { // second round: both served from cache
		for i, u := range urls {
			req := mustRequest(t, u, "http://news.example.org/")
			want := snap.Engine.MatchRequest(req)
			if want.Verdict != wants[i] {
				t.Fatalf("oracle verdict for %s = %v, want %v", u, want.Verdict, wants[i])
			}
			got, cached, _ := svc.MatchProfile(req, "")
			if cached != (round == 1) {
				t.Errorf("round %d %s: cached = %v", round, u, cached)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s: cached decision %+v != fresh %+v", round, u, got, want)
			}
		}
	}
}

func TestElemHideCSS(t *testing.T) {
	svc := newTestService(t, 0)
	if css, _ := svc.ElemHideCSSProfile("blog.example.com", ""); !strings.Contains(css, ".ad-box") {
		t.Errorf("stylesheet for blog.example.com = %q, want .ad-box hidden", css)
	}
	if css, _ := svc.ElemHideCSSProfile("news.example.org", ""); strings.Contains(css, ".ad-box") {
		t.Errorf("stylesheet for news.example.org = %q, want .ad-box excepted", css)
	}
}

// TestSwapUnderLoad runs NumCPU matcher goroutines against the service
// while a writer republishes snapshots as fast as it can. Run under
// -race this is the proof behind the lock-free reader claim: every read
// sees either the old or the new snapshot, never a torn one, and every
// verdict stays semantically valid.
func TestSwapUnderLoad(t *testing.T) {
	svc := newTestService(t, 4096)
	urls := []string{
		"http://ads.example.com/x.js",
		"http://ads.example.com/acceptable/ad.js",
		"http://cdn.example.net/banner/1.gif",
		"http://fine.example.net/app.js",
		"http://track.io/r/collect",
	}
	wants := []engine.Verdict{
		engine.Blocked, engine.Allowed, engine.NoMatch, engine.NoMatch, engine.Blocked,
	}
	// /banner/* is $image; build one image request for it.
	reqs := make([]*engine.Request, len(urls))
	for i, u := range urls {
		typ := filter.TypeScript
		if strings.Contains(u, "banner") {
			typ = filter.TypeImage
			wants[i] = engine.Blocked
		}
		r, err := engine.NewRequest(u, "http://news.example.org/", typ)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = r
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				j := (i + g) % len(reqs)
				d, _, _ := svc.MatchProfile(reqs[j], "")
				if d.Verdict != wants[j] {
					t.Errorf("reader %d: %s = %v, want %v", g, urls[j], d.Verdict, wants[j])
					return
				}
			}
		}(g)
	}
	for i := 0; i < 25; i++ {
		if _, err := svc.Reload(context.Background()); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if v := svc.Snapshot().Version; v != 26 {
		t.Errorf("final snapshot version = %d, want 26", v)
	}
}

// ---- cache-correctness differential ----------------------------------------

// genFilter and genMatchURL mirror the engine package's differential
// grammar: random host-anchored and path patterns against URLs with a
// fighting chance of matching, here used to prove that a decision served
// from the cache is identical to one computed fresh on the same snapshot.
func genFilter(rng *xrand.RNG) string {
	hosts := []string{"adzerk.net", "ads.example.com", "track.io", "a.b.c.d"}
	paths := []string{"/ads/", "/r/collect", "/x", "/gampad/ads.js"}
	var b strings.Builder
	if rng.Intn(4) == 0 {
		b.WriteString("@@") // exceptions too: both decision sides cached
	}
	switch rng.Intn(3) {
	case 0:
		b.WriteString("||")
	case 1:
		b.WriteString("|http://")
	}
	b.WriteString(hosts[rng.Intn(len(hosts))])
	if rng.Intn(2) == 0 {
		b.WriteString("^")
	}
	if rng.Intn(2) == 0 {
		b.WriteString(paths[rng.Intn(len(paths))])
	}
	var opts []string
	if rng.Intn(3) == 0 {
		opts = append(opts, "third-party")
	}
	if rng.Intn(4) == 0 {
		// Case-sensitive filters: these decide differently for the
		// mixed-case URL variants genMatchURL emits, so a cache that
		// canonicalizes URL case would fail this differential.
		opts = append(opts, "match-case")
	}
	if len(opts) > 0 {
		b.WriteString("$" + strings.Join(opts, ","))
	}
	return b.String()
}

func genMatchURL(rng *xrand.RNG) string {
	hosts := []string{
		"adzerk.net", "static.adzerk.net", "ads.example.com",
		"xads.example.com", "track.io", "a.b.c.d", "evil.com",
	}
	// Mixed-case variants of the same paths: $match-case filters decide
	// them differently from their lowercase twins, so the cache must keep
	// the variants apart.
	paths := []string{
		"", "/", "/ads/", "/ads/banner.gif", "/r/collect", "/x", "/gampad/ads.js?q=1",
		"/Ads/", "/ADS/banner.gif", "/R/collect", "/X", "/gampad/Ads.js?q=1",
	}
	return "http://" + hosts[rng.Intn(len(hosts))] + paths[rng.Intn(len(paths))]
}

func TestCacheCorrectnessDifferential(t *testing.T) {
	rng := xrand.New(20150428)
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, genFilter(rng))
	}
	svc, err := New(context.Background(), Config{
		Source: Lists(engine.NamedList{
			Name: "l", List: filter.ParseListString("l", strings.Join(lines, "\n")),
		}),
		CacheSize: 256, // small: exercises eviction mid-run
	})
	if err != nil {
		t.Fatal(err)
	}

	docs := []string{"http://adzerk.net/", "http://first.example/", "http://track.io/"}
	snap := svc.Snapshot()
	hits := 0
	for i := 0; i < 4000; i++ {
		req, err := engine.NewRequest(genMatchURL(rng), docs[rng.Intn(len(docs))], filter.TypeImage)
		if err != nil {
			t.Fatal(err)
		}
		// The oracle bypasses the cache on the same frozen snapshot.
		want := snap.Engine.MatchRequest(req)
		got, cached, _ := svc.MatchProfile(req, "")
		if cached {
			hits++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d (cached=%v): cached decision %+v != fresh %+v",
				i, cached, got, want)
		}
	}
	if hits == 0 {
		t.Fatal("corpus never hit the cache; the differential proved nothing")
	}
}
