package engine

import (
	"testing"

	"acceptableads/internal/filter"
)

func mustEngine(t *testing.T, lists ...NamedList) *Engine {
	t.Helper()
	e, err := New(lists...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func listOf(name, text string) NamedList {
	return NamedList{Name: name, List: filter.ParseListString(name, text)}
}

// recordingMatcher matches over e's full profile, recording to rec.
func recordingMatcher(e *Engine, rec Recorder) requestMatcher {
	return e.views[DefaultProfile].WithRecorder(rec)
}

func TestBlockThirdPartyAdzerk(t *testing.T) {
	// §2.1.1: "||adzerk.net^$third-party" blocks all third-party
	// requests to adzerk.net or any of its subdomains.
	e := mustEngine(t, listOf("easylist", "||adzerk.net^$third-party"))
	d := e.MatchRequest(&Request{
		URL:          "http://static.adzerk.net/reddit/ads.html?sr=-reddit.com",
		Type:         filter.TypeSubdocument,
		DocumentHost: "www.reddit.com",
	})
	if d.Verdict != Blocked {
		t.Fatalf("verdict = %v, want blocked", d.Verdict)
	}
	// First-party request from adzerk.net itself is not blocked.
	d = e.MatchRequest(&Request{
		URL:          "http://static.adzerk.net/logo.png",
		Type:         filter.TypeImage,
		DocumentHost: "adzerk.net",
	})
	if d.Verdict != NoMatch {
		t.Fatalf("first-party verdict = %v, want no-match", d.Verdict)
	}
}

func TestExceptionOverridesBlock(t *testing.T) {
	// The paper's Reddit whitelisting: the exception overrides the
	// blocking filter regardless of match order.
	e := mustEngine(t,
		listOf("easylist", "||adzerk.net^$third-party"),
		listOf("exceptionrules", "@@||adzerk.net/reddit/$subdocument,document,domain=reddit.com"),
	)
	d := e.MatchRequest(&Request{
		URL:          "http://static.adzerk.net/reddit/ads.html",
		Type:         filter.TypeSubdocument,
		DocumentHost: "www.reddit.com",
	})
	if d.Verdict != Allowed {
		t.Fatalf("verdict = %v, want allowed", d.Verdict)
	}
	if m := d.BlockedBy(); m == nil || m.List != "easylist" {
		t.Errorf("BlockedBy = %+v", m)
	}
	if m := d.AllowedBy(); m == nil || m.List != "exceptionrules" {
		t.Errorf("AllowedBy = %+v", m)
	}
	// On another site the exception does not apply.
	d = e.MatchRequest(&Request{
		URL:          "http://static.adzerk.net/reddit/ads.html",
		Type:         filter.TypeSubdocument,
		DocumentHost: "example.com",
	})
	if d.Verdict != Blocked {
		t.Fatalf("other-site verdict = %v, want blocked", d.Verdict)
	}
}

func TestDomainAnchorSemantics(t *testing.T) {
	// Appendix A: "||example.com/ad.jpg|" matches
	// http://good.example.com/ad.jpg and https://example.com/ad.jpg but
	// not https://example.com/ad.jpg.exe.
	e := mustEngine(t, listOf("l", "||example.com/ad.jpg|"))
	cases := []struct {
		url  string
		want Verdict
	}{
		{"http://good.example.com/ad.jpg", Blocked},
		{"https://example.com/ad.jpg", Blocked},
		{"https://example.com/ad.jpg.exe", NoMatch},
		{"http://badexample.com/ad.jpg", NoMatch},
		{"http://example.com.evil.org/ad.jpg", NoMatch},
	}
	for _, c := range cases {
		d := e.MatchRequest(&Request{URL: c.url, Type: filter.TypeImage, DocumentHost: "x.com"})
		if d.Verdict != c.want {
			t.Errorf("%s: verdict = %v, want %v", c.url, d.Verdict, c.want)
		}
	}
}

func TestSeparatorSemantics(t *testing.T) {
	// Appendix A: "||^www.google.com^" — we test the documented separator
	// behaviour with "||www.google.com^": it matches
	// http://www.google.com/#q=foo but not http://scholar.google.com.
	e := mustEngine(t, listOf("l", "||www.google.com^"))
	d := e.MatchRequest(&Request{URL: "http://www.google.com/#q=foo", Type: filter.TypeOther, DocumentHost: "x.com"})
	if d.Verdict != Blocked {
		t.Errorf("www.google.com/#q=foo: %v, want blocked", d.Verdict)
	}
	d = e.MatchRequest(&Request{URL: "http://scholar.google.com/x", Type: filter.TypeOther, DocumentHost: "x.com"})
	if d.Verdict != NoMatch {
		t.Errorf("scholar.google.com: %v, want no-match", d.Verdict)
	}
	// '^' also matches the end of the URL.
	d = e.MatchRequest(&Request{URL: "http://www.google.com", Type: filter.TypeOther, DocumentHost: "x.com"})
	if d.Verdict != Blocked {
		t.Errorf("bare www.google.com: %v, want blocked", d.Verdict)
	}
}

func TestWildcards(t *testing.T) {
	e := mustEngine(t, listOf("l", "/ad-frame/"))
	d := e.MatchRequest(&Request{URL: "http://any.example/x/ad-frame/y.gif", Type: filter.TypeImage, DocumentHost: "x.com"})
	if d.Verdict != Blocked {
		t.Errorf("implicit wildcard match failed: %v", d.Verdict)
	}
	e2 := mustEngine(t, listOf("l", "||google.com/ads/search/module/ads/*/search.js"))
	d = e2.MatchRequest(&Request{
		URL:  "http://google.com/ads/search/module/ads/v7/search.js",
		Type: filter.TypeScript, DocumentHost: "suche.golem.de",
	})
	if d.Verdict != Blocked {
		t.Errorf("star wildcard match failed: %v", d.Verdict)
	}
	// "ads/*/search.js" requires both slashes around the wildcard (its
	// regex translation is "ads/.*/search\.js"), so a URL with only one
	// path segment between them must not match.
	d = e2.MatchRequest(&Request{
		URL:  "http://google.com/ads/search/module/ads/search.js",
		Type: filter.TypeScript, DocumentHost: "suche.golem.de",
	})
	if d.Verdict != NoMatch {
		t.Errorf("collapsed star matched: %v", d.Verdict)
	}
}

func TestContentTypeGating(t *testing.T) {
	e := mustEngine(t, listOf("l", "||ads.example^$script"))
	d := e.MatchRequest(&Request{URL: "http://ads.example/a.js", Type: filter.TypeScript, DocumentHost: "x.com"})
	if d.Verdict != Blocked {
		t.Errorf("script: %v, want blocked", d.Verdict)
	}
	d = e.MatchRequest(&Request{URL: "http://ads.example/a.png", Type: filter.TypeImage, DocumentHost: "x.com"})
	if d.Verdict != NoMatch {
		t.Errorf("image: %v, want no-match", d.Verdict)
	}
}

func TestDocumentTypeNotImplicit(t *testing.T) {
	// $document never applies implicitly: a plain blocking filter must
	// not block a top-level document request.
	e := mustEngine(t, listOf("l", "||evil.example^"))
	d := e.MatchRequest(&Request{URL: "http://evil.example/", Type: filter.TypeDocument, DocumentHost: "evil.example"})
	if d.Verdict != NoMatch {
		t.Errorf("document request: %v, want no-match", d.Verdict)
	}
}

func TestMatchCase(t *testing.T) {
	e := mustEngine(t, listOf("l", "/BannerAd/$match-case"))
	d := e.MatchRequest(&Request{URL: "http://x.example/BannerAd/1.png", Type: filter.TypeImage, DocumentHost: "x.com"})
	if d.Verdict != Blocked {
		t.Errorf("exact case: %v, want blocked", d.Verdict)
	}
	d = e.MatchRequest(&Request{URL: "http://x.example/bannerad/1.png", Type: filter.TypeImage, DocumentHost: "x.com"})
	if d.Verdict != NoMatch {
		t.Errorf("wrong case: %v, want no-match", d.Verdict)
	}
	// Without match-case, matching is case-insensitive both ways.
	e2 := mustEngine(t, listOf("l", "/BannerAd/"))
	d = e2.MatchRequest(&Request{URL: "http://x.example/bannerad/1.png", Type: filter.TypeImage, DocumentHost: "x.com"})
	if d.Verdict != Blocked {
		t.Errorf("case-insensitive: %v, want blocked", d.Verdict)
	}
}

func TestRegexFilter(t *testing.T) {
	e := mustEngine(t, listOf("l", `/banner[0-9]+\.gif/`))
	d := e.MatchRequest(&Request{URL: "http://x.example/banner123.gif", Type: filter.TypeImage, DocumentHost: "x.com"})
	if d.Verdict != Blocked {
		t.Errorf("regex: %v, want blocked", d.Verdict)
	}
	d = e.MatchRequest(&Request{URL: "http://x.example/banner.gif", Type: filter.TypeImage, DocumentHost: "x.com"})
	if d.Verdict != NoMatch {
		t.Errorf("regex non-match: %v, want no-match", d.Verdict)
	}
}

func TestInvalidRegexError(t *testing.T) {
	_, err := New(listOf("l", `/banner[/`))
	if err == nil {
		t.Fatal("expected error for invalid regex filter")
	}
}

func TestSitekeyGating(t *testing.T) {
	e := mustEngine(t,
		listOf("easylist", "||ads.example^"),
		listOf("exceptionrules", "@@$sitekey=SEDOKEY,document"),
	)
	// Page presenting the verified key gets a document allowance.
	flags := e.PagePermissions("http://reddit.cm/", "SEDOKEY")
	if !flags.DocumentAllowed {
		t.Fatal("expected document allowance with valid sitekey")
	}
	if flags.DocumentBy == nil || flags.DocumentBy.List != "exceptionrules" {
		t.Errorf("DocumentBy = %+v", flags.DocumentBy)
	}
	// Without the key: no allowance.
	flags = e.PagePermissions("http://reddit.cm/", "")
	if flags.DocumentAllowed {
		t.Fatal("document allowed without sitekey")
	}
	// Wrong key: no allowance.
	flags = e.PagePermissions("http://reddit.cm/", "OTHERKEY")
	if flags.DocumentAllowed {
		t.Fatal("document allowed with wrong sitekey")
	}
}

func TestElemHideException(t *testing.T) {
	// EasyList hides #ad_main everywhere; the whitelist un-hides it on
	// reddit.com.
	e := mustEngine(t,
		listOf("easylist", "###ad_main"),
		listOf("exceptionrules", "reddit.com#@##ad_main"),
	)
	doc := parseDoc(`<div id="ad_main">ad</div><div id="other">x</div>`)
	ms := e.HideElements(doc, "http://www.reddit.com/", "www.reddit.com")
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	if ms[0].Hidden() {
		t.Error("ad_main should be un-hidden on reddit.com")
	}
	if ms[0].AllowedBy == nil || ms[0].AllowedBy.List != "exceptionrules" {
		t.Errorf("AllowedBy = %+v", ms[0].AllowedBy)
	}
	// Elsewhere it stays hidden.
	ms = e.HideElements(doc, "http://example.com/", "example.com")
	if len(ms) != 1 || !ms[0].Hidden() {
		t.Fatalf("element should be hidden on example.com: %+v", ms)
	}
}

func TestElemHideDomainRestriction(t *testing.T) {
	e := mustEngine(t, listOf("easylist", "cracked.com##.topbar-ad"))
	doc := parseDoc(`<div class="topbar-ad">ad</div>`)
	if ms := e.HideElements(doc, "http://www.cracked.com/", "www.cracked.com"); len(ms) != 1 {
		t.Fatalf("cracked.com matches = %d, want 1", len(ms))
	}
	if ms := e.HideElements(doc, "http://other.com/", "other.com"); len(ms) != 0 {
		t.Fatalf("other.com matches = %d, want 0", len(ms))
	}
}

func TestElemHidePerElementCounting(t *testing.T) {
	// One filter hiding three elements yields three matches — the
	// total-vs-distinct distinction of Figure 7.
	e := mustEngine(t, listOf("easylist", "##.ad"))
	doc := parseDoc(`<div class="ad">1</div><div class="ad">2</div><div class="ad">3</div>`)
	var acts []Activation
	v := e.views[DefaultProfile].WithRecorder(RecorderFunc(func(a Activation) { acts = append(acts, a) }))
	ms := v.HideElements(doc, "http://x.com/", "x.com")
	if len(ms) != 3 {
		t.Fatalf("matches = %d, want 3", len(ms))
	}
	if len(acts) != 3 {
		t.Fatalf("activations = %d, want 3", len(acts))
	}
}

func TestRecorderSeesNeedlessActivation(t *testing.T) {
	// §5: "whitelist filters activate needlessly" — an exception firing
	// with no blocking filter still counts as an activation.
	e := mustEngine(t, listOf("exceptionrules", "@@||gstatic.com^$third-party"))
	var acts []Activation
	v := e.views[DefaultProfile].WithRecorder(RecorderFunc(func(a Activation) { acts = append(acts, a) }))
	d := v.MatchRequest(&Request{
		URL: "http://fonts.gstatic.com/s/roboto.woff", Type: filter.TypeOther,
		DocumentHost: "example.com",
	})
	if d.Verdict != Allowed {
		t.Fatalf("verdict = %v, want allowed", d.Verdict)
	}
	if d.BlockedBy() != nil {
		t.Error("no blocking filter should have matched")
	}
	if len(acts) != 1 || acts[0].List != "exceptionrules" {
		t.Fatalf("activations = %+v", acts)
	}
}

func TestFastPathSkipsNeedlessExceptions(t *testing.T) {
	e := mustEngine(t, listOf("exceptionrules", "@@||gstatic.com^$third-party"))
	d := e.MatchRequest(&Request{
		URL: "http://fonts.gstatic.com/s/roboto.woff", Type: filter.TypeOther,
		DocumentHost: "example.com",
	}, WithShortCircuit())
	if d.Verdict != NoMatch {
		t.Fatalf("fast verdict = %v, want no-match (no blocking filter)", d.Verdict)
	}
}

func TestLinearMatchesIndexed(t *testing.T) {
	// The keyword index must be semantics-preserving.
	lists := []NamedList{
		listOf("easylist", "||adzerk.net^$third-party\n||doubleclick.net^\n/ad-frame/\n||ads.example^$script\n|http://exact.example/ad.jpg|"),
		listOf("exceptionrules", "@@||adzerk.net/reddit/$subdocument,document,domain=reddit.com\n@@||gstatic.com^$third-party\n@@||googleadservices.com^$third-party"),
	}
	e := mustEngine(t, lists...)
	urls := []struct {
		url  string
		typ  filter.ContentType
		host string
	}{
		{"http://static.adzerk.net/reddit/ads.html", filter.TypeSubdocument, "reddit.com"},
		{"http://stats.g.doubleclick.net/r/collect", filter.TypeImage, "toyota.com"},
		{"http://x.example/ad-frame/1.gif", filter.TypeImage, "x.com"},
		{"http://ads.example/a.js", filter.TypeScript, "x.com"},
		{"http://exact.example/ad.jpg", filter.TypeImage, "x.com"},
		{"http://fonts.gstatic.com/f.woff", filter.TypeOther, "x.com"},
		{"http://www.googleadservices.com/pagead/conversion.js", filter.TypeScript, "shop.com"},
		{"http://plain.example/index.css", filter.TypeStylesheet, "x.com"},
	}
	for _, u := range urls {
		req := &Request{URL: u.url, Type: u.typ, DocumentHost: u.host}
		a := e.MatchRequest(req)
		b := e.MatchRequest(req, WithLinearScan())
		if a.Verdict != b.Verdict {
			t.Errorf("%s: indexed %v != linear %v", u.url, a.Verdict, b.Verdict)
		}
	}
}

func TestNumFiltersAndLists(t *testing.T) {
	e := mustEngine(t,
		listOf("easylist", "||a.example^\n##.ad\n! comment"),
		listOf("exceptionrules", "@@||b.example^"),
	)
	if e.NumFilters() != 3 {
		t.Errorf("NumFilters = %d, want 3", e.NumFilters())
	}
	if len(e.Lists()) != 2 || e.Lists()[0] != "easylist" {
		t.Errorf("Lists = %v", e.Lists())
	}
}

func TestDoNotTrackSignalling(t *testing.T) {
	// A DNT list (Appendix A.4): the filter signals the header and never
	// blocks; a $donottrack exception suppresses it per-site.
	e := mustEngine(t,
		listOf("dntlist", "||tracker.example^$donottrack\n@@||tracker.example/optout^$donottrack"),
		listOf("easylist", "||ads.example^"),
	)
	d := e.MatchRequest(&Request{
		URL: "http://tracker.example/collect.js", Type: filter.TypeScript,
		DocumentHost: "x.com",
	})
	if d.Verdict != NoMatch {
		t.Errorf("DNT filter blocked the request: %v", d.Verdict)
	}
	if !d.DoNotTrack {
		t.Error("DNT not signalled")
	}
	// The exception suppresses the signal.
	d = e.MatchRequest(&Request{
		URL: "http://tracker.example/optout/collect.js", Type: filter.TypeScript,
		DocumentHost: "x.com",
	})
	if d.DoNotTrack {
		t.Error("DNT signalled despite exception")
	}
	// Unrelated requests: no DNT, normal blocking still works.
	d = e.MatchRequest(&Request{
		URL: "http://ads.example/a.js", Type: filter.TypeScript, DocumentHost: "x.com",
	})
	if d.DoNotTrack || d.Verdict != Blocked {
		t.Errorf("unrelated request: dnt=%v verdict=%v", d.DoNotTrack, d.Verdict)
	}
}

func TestDoNotTrackZeroCostWithoutFilters(t *testing.T) {
	e := mustEngine(t, listOf("easylist", "||ads.example^"))
	d := e.MatchRequest(&Request{URL: "http://x.example/a.js", Type: filter.TypeScript, DocumentHost: "x.com"})
	if d.DoNotTrack {
		t.Error("DNT signalled with no DNT filters loaded")
	}
}

func TestSitekeyMultipleKeys(t *testing.T) {
	e := mustEngine(t, listOf("exceptionrules", "@@$sitekey=KEYA|KEYB,document"))
	for _, key := range []string{"KEYA", "KEYB"} {
		if flags := e.PagePermissions("http://parked.example/", key); !flags.DocumentAllowed {
			t.Errorf("key %s did not grant allowance", key)
		}
	}
	if flags := e.PagePermissions("http://parked.example/", "KEYC"); flags.DocumentAllowed {
		t.Error("unknown key granted allowance")
	}
}

func TestSchemeRelativeRequests(t *testing.T) {
	e := mustEngine(t, listOf("l", "||adzerk.net^$third-party"))
	d := e.MatchRequest(&Request{
		URL: "//static.adzerk.net/ads.html", Type: filter.TypeSubdocument,
		DocumentHost: "reddit.com",
	})
	if d.Verdict != Blocked {
		t.Errorf("scheme-relative URL verdict = %v, want blocked", d.Verdict)
	}
}

func TestNegatedTypeInteraction(t *testing.T) {
	// $~image,domain=x.com: all default types except image, only on x.com.
	e := mustEngine(t, listOf("l", "||ads.example^$~image,domain=x.com"))
	d := e.MatchRequest(&Request{URL: "http://ads.example/a.js", Type: filter.TypeScript, DocumentHost: "x.com"})
	if d.Verdict != Blocked {
		t.Errorf("script on x.com: %v, want blocked", d.Verdict)
	}
	d = e.MatchRequest(&Request{URL: "http://ads.example/a.png", Type: filter.TypeImage, DocumentHost: "x.com"})
	if d.Verdict != NoMatch {
		t.Errorf("image on x.com: %v, want no-match", d.Verdict)
	}
	d = e.MatchRequest(&Request{URL: "http://ads.example/a.js", Type: filter.TypeScript, DocumentHost: "y.com"})
	if d.Verdict != NoMatch {
		t.Errorf("script on y.com: %v, want no-match", d.Verdict)
	}
}
