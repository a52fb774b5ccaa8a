package engine

import (
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"

	"acceptableads/internal/filter"
)

func TestNewRequestValidation(t *testing.T) {
	cases := []struct {
		url, doc string
		ok       bool
	}{
		{"http://ads.example.com/banner.js", "http://news.example.com/", true},
		{"https://track.io/r/collect?x=1", "news.example.com", true},
		{"//cdn.example.com/app.js", "http://news.example.com/", true},
		{"", "http://news.example.com/", false},
		{"http://", "http://news.example.com/", false},
		{"/relative/path.js", "http://news.example.com/", false},
		{"http://bad host/x", "http://news.example.com/", false},
	}
	for _, c := range cases {
		req, err := NewRequest(c.url, c.doc, filter.TypeScript)
		if c.ok && err != nil {
			t.Errorf("NewRequest(%q): unexpected error %v", c.url, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("NewRequest(%q): want error, got %+v", c.url, req)
			}
			continue
		}
		if req.URL != c.url {
			t.Errorf("NewRequest(%q): URL mangled to %q", c.url, req.URL)
		}
		if req.DocumentHost != "news.example.com" {
			t.Errorf("NewRequest(%q): DocumentHost = %q", c.url, req.DocumentHost)
		}
	}
}

func TestNewRequestDefaultsType(t *testing.T) {
	req, err := NewRequest("http://x.example/a.bin", "x.example", 0)
	if err != nil {
		t.Fatal(err)
	}
	if req.Type != filter.TypeOther {
		t.Errorf("zero type = %v, want TypeOther", req.Type)
	}
}

// TestPrepareMemoized asserts the two-phase guarantee of the constructor:
// NewRequest and the key side (everything the decision cache reads) never
// derive the index side, the first evaluation derives it, and it is
// derived exactly once per request no matter how many matches — and in
// how many modes — consume it.
func TestPrepareMemoized(t *testing.T) {
	e := mustEngine(t,
		listOf("easylist", "||ads.example.com^\n/banner/*$image"),
		listOf("exceptionrules", "@@||ads.example.com/ok/$script"),
	)
	before := prepares.Load()
	req, err := NewRequest("http://ads.example.com/banner.js", "http://news.example.com/", filter.TypeScript)
	if err != nil {
		t.Fatal(err)
	}
	if req.ThirdParty() || req.DocumentHost != "news.example.com" {
		t.Fatalf("key side wrong: third=%v doc=%q", req.ThirdParty(), req.DocumentHost)
	}
	if got := prepares.Load() - before; got != 0 {
		t.Errorf("index side derived %d times by NewRequest and the key side, want 0", got)
	}
	for i := 0; i < 10; i++ {
		if d := e.MatchRequest(req); d.Verdict != Blocked {
			t.Fatalf("verdict = %v, want blocked", d.Verdict)
		}
		e.MatchRequest(req, WithShortCircuit())
		e.MatchRequest(req, WithLinearScan())
	}
	if got := prepares.Load() - before; got != 1 {
		t.Errorf("index side derived %d times over 30 matches of one request, want 1 (at the first)", got)
	}
}

// TestPrepareRecomputesOnMutation: legacy struct-literal requests that are
// mutated between matches must see fresh derivations, not stale memos.
func TestPrepareRecomputesOnMutation(t *testing.T) {
	e := mustEngine(t, listOf("easylist", "||ads.example.com^"))
	req := &Request{URL: "http://ads.example.com/a.js", Type: filter.TypeScript, DocumentHost: "news.example.com"}
	before := prepares.Load()
	if d := e.MatchRequest(req); d.Verdict != Blocked {
		t.Fatalf("verdict = %v, want blocked", d.Verdict)
	}
	if d := e.MatchRequest(req); d.Verdict != Blocked {
		t.Fatalf("repeat verdict = %v, want blocked", d.Verdict)
	}
	if got := prepares.Load() - before; got != 1 {
		t.Errorf("prepare ran %d times for an unchanged request, want 1", got)
	}
	req.URL = "http://fine.example.org/a.js"
	if d := e.MatchRequest(req); d.Verdict != NoMatch {
		t.Fatalf("post-mutation verdict = %v, want no-match", d.Verdict)
	}
	if got := prepares.Load() - before; got != 2 {
		t.Errorf("prepare ran %d times after a mutation, want 2", got)
	}
}

// legacyAccepts is NewRequest's validation rule as it stood before the
// fast recogniser: non-empty, parseable (scheme-relative via an "http:"
// prefix), with a host.
func legacyAccepts(raw string) bool {
	if raw == "" {
		return false
	}
	if strings.HasPrefix(raw, "//") {
		raw = "http:" + raw
	}
	u, err := url.Parse(raw)
	return err == nil && u.Host != ""
}

// FuzzNewRequestValidation: whatever the fast recogniser accepts, url.Parse
// accepts with a non-empty host, and NewRequest's accept/reject set is the
// pre-recogniser rule on every input — so no request changes status code.
func FuzzNewRequestValidation(f *testing.F) {
	for _, seed := range []string{
		"http://ads.example.com/banner.js",
		"https://static.cloudedge.io/assets/v3.12.4/app-0a1b2c3d.js?v=20150412&menu=0123456789ab",
		"//cdn.example.com/app.js",
		"//",
		"http://",
		"https://:80/",
		"http://user:pw@host.example/x",
		"http://host.example:8080/x",
		"http://host.example:/x",
		"http://host.example:80a/x",
		"http://[::1]:80/x",
		"http://[::1/x",
		"http://host.example/%7e/%zz",
		"http://host.example/a%",
		"http://host.example/?q=%zz",
		"http://host.example/#%zz",
		"http://host.example/a\x00b",
		"http://host.example/a\x7fb",
		"http://host.example/a b",
		"http://bad host/x",
		"http://UPPER.Example.COM/Path",
		"HTTP://upper.example.com/",
		"http://höst.example/",
		"http://host.example/café",
		"http://host_name.example/",
		"http://host.example?x/y@z",
		"http://host.example#frag",
		"http:/one-slash.example/",
		"/relative/path.js",
		"mailto:someone@example.com",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want := legacyAccepts(raw)
		if plainHTTPURL(raw) && !want {
			t.Fatalf("recogniser accepts %q, which url.Parse rejects or finds hostless", raw)
		}
		_, err := NewRequest(raw, "http://news.example.com/", filter.TypeScript)
		if got := err == nil; got != want {
			t.Fatalf("NewRequest(%q) accepted=%v, the parse rule says %v (err: %v)", raw, got, want, err)
		}
	})
}

// corpusURL is the shape of sub-resource URL the service benchmark's crawl
// corpus replays: lower-case, versioned path, content hash, query string.
const corpusURL = "https://static.cloudedge.io/wp-content/uploads/2015/04/v3.12.4/bootstrap.min-0a1b2c3d4e5f.js?v=20150412&menu=0123456789abcdef0123"

// TestRequestAllocs pins the allocation budget of the two phases on a
// corpus-shaped URL: the constructor allocates the Request and nothing
// else, the first evaluation allocates the index-side block and nothing
// else, and every evaluation after that allocates nothing.
func TestRequestAllocs(t *testing.T) {
	e := mustEngine(t, listOf("easylist", "||ads.example.com^\n/banner/*$image"))
	var req *Request
	if allocs := testing.AllocsPerRun(100, func() {
		req, _ = NewRequest(corpusURL, "https://www.example.com/", filter.TypeScript)
	}); allocs > 1 {
		t.Errorf("NewRequest allocated %.1f times, want at most 1", allocs)
	}
	if req == nil {
		t.Fatal("corpus URL rejected")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		req.ix.Store(nil)
		e.MatchRequest(req, WithShortCircuit())
	}); allocs > 1 {
		t.Errorf("first MatchRequest allocated %.1f times, want at most 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.MatchRequest(req, WithShortCircuit())
	}); allocs != 0 {
		t.Errorf("repeat MatchRequest allocated %.1f times, want 0", allocs)
	}
}

// TestConcurrentFirstMatch: GOMAXPROCS goroutines first-match one shared
// NewRequest request, each under a different view. Every decision must
// equal the one a sequentially derived twin gets, and the index side is
// derived at most once per goroutine (the CAS losers' copies). Run under
// -race it is also the proof that publishing the block is race-free.
func TestConcurrentFirstMatch(t *testing.T) {
	e := mustEngine(t,
		listOf("easylist", "||ads.example.com^\n/banner/*$image"),
		listOf("exceptionrules", "@@||ads.example.com/ok/$script"),
	)
	if err := e.addProfile("easylist", "easylist"); err != nil {
		t.Fatal(err)
	}
	views := make([]*View, 2)
	for i, name := range []string{DefaultProfile, "easylist"} {
		v, err := e.View(name)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	const url, doc = "http://ads.example.com/ok/banner.js", "http://news.example.com/"
	twin, err := NewRequest(url, doc, filter.TypeScript)
	if err != nil {
		t.Fatal(err)
	}
	want := [2]Decision{views[0].MatchRequest(twin), views[1].MatchRequest(twin)}
	if want[0].Verdict != Allowed || want[1].Verdict != Blocked {
		t.Fatalf("fixture verdicts = %v/%v, want allowed/blocked", want[0].Verdict, want[1].Verdict)
	}

	n := runtime.GOMAXPROCS(0)
	for round := 0; round < 50; round++ {
		req, err := NewRequest(url, doc, filter.TypeScript)
		if err != nil {
			t.Fatal(err)
		}
		before := prepares.Load()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if got := views[g%2].MatchRequest(req); got != want[g%2] {
					t.Errorf("goroutine %d: decision %+v, want %+v", g, got, want[g%2])
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if got := prepares.Load() - before; got < 1 || got > uint64(n) {
			t.Fatalf("index side derived %d times by %d goroutines, want 1..%d", got, n, n)
		}
	}
}
