package engine

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"acceptableads/internal/filter"
	"acceptableads/internal/htmldom"
)

func parseDoc(html string) *htmldom.Node { return htmldom.Parse(html) }

func compile(t *testing.T, line string) *pattern {
	t.Helper()
	f := filter.Parse(line)
	if !f.IsActive() {
		t.Fatalf("filter %q did not parse: %s", line, f.Text)
	}
	p, err := compilePattern(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func matches(p *pattern, url string) bool {
	lower := strings.ToLower(url)
	return p.match(url, lower, appendDomainBoundaries(nil, lower))
}

func TestPatternPlain(t *testing.T) {
	p := compile(t, "http://example.com/ads/advert777.gif")
	if !matches(p, "http://example.com/ads/advert777.gif") {
		t.Error("exact URL should match")
	}
	if !matches(p, "http://x.com/redir?http://example.com/ads/advert777.gif") {
		t.Error("implicit wildcards should match substring")
	}
	if matches(p, "http://example.com/ads/advert778.gif") {
		t.Error("different URL should not match")
	}
}

func TestPatternSeparatorEnd(t *testing.T) {
	p := compile(t, "||adzerk.net^")
	for _, url := range []string{
		"http://adzerk.net/x", "http://static.adzerk.net/x",
		"https://adzerk.net", "http://adzerk.net:8080/x",
		"http://adzerk.net?q=1",
	} {
		if !matches(p, url) {
			t.Errorf("%s should match", url)
		}
	}
	for _, url := range []string{
		"http://adzerk.network/x", "http://notadzerk.net/x",
		"http://evil.com/adzerk.net.html", // '.' is not a separator; but path pos is not a domain boundary anyway
	} {
		if matches(p, url) {
			t.Errorf("%s should NOT match", url)
		}
	}
}

func TestPatternSchemeRelative(t *testing.T) {
	p := compile(t, "||adzerk.net^")
	if !matches(p, "//static.adzerk.net/ads.html") {
		t.Error("scheme-relative URL should match domain anchor")
	}
}

func TestPatternStartAnchor(t *testing.T) {
	p := compile(t, "|http://example.com/ad")
	if !matches(p, "http://example.com/ad.jpg") {
		t.Error("prefix should match")
	}
	if matches(p, "http://x.com/q?http://example.com/ad.jpg") {
		t.Error("non-prefix should not match start anchor")
	}
}

func TestPatternEndAnchor(t *testing.T) {
	p := compile(t, "/ad.js|")
	if !matches(p, "http://x.com/dir/ad.js") {
		t.Error("suffix should match")
	}
	if matches(p, "http://x.com/ad.js?x=1") {
		t.Error("non-suffix should not match end anchor")
	}
}

func TestPatternBothAnchors(t *testing.T) {
	p := compile(t, "|http://a.com/x.js|")
	if !matches(p, "http://a.com/x.js") {
		t.Error("exact match expected")
	}
	if matches(p, "http://a.com/x.jsx") || matches(p, "xhttp://a.com/x.js") {
		t.Error("anchored pattern matched with extra bytes")
	}
}

func TestPatternMultiWildcard(t *testing.T) {
	p := compile(t, "||google.com/ads/*/module/*/search.js")
	if !matches(p, "http://google.com/ads/a/module/b/search.js") {
		t.Error("two-star pattern should match")
	}
	if matches(p, "http://google.com/ads/a/other/b/search.js") {
		t.Error("missing middle segment should not match")
	}
	// Segment order matters.
	if matches(p, "http://google.com/module/a/ads/b/search.js") {
		t.Error("out-of-order segments should not match")
	}
}

func TestPatternSeparatorInsideURL(t *testing.T) {
	// Note: "/banner^ad/" would parse as a regex filter (slash-delimited),
	// so the separator test uses a bare pattern with implicit wildcards.
	p := compile(t, "banner^ad")
	if !matches(p, "http://x.com/banner/ad/1.png") {
		t.Error("'/' should satisfy '^'")
	}
	if !matches(p, "http://x.com/banner?ad/") {
		t.Error("'?' should satisfy '^'")
	}
	if matches(p, "http://x.com/banner-ad/") {
		t.Error("'-' must not satisfy '^'")
	}
	if matches(p, "http://x.com/bannerXad/") {
		t.Error("letter must not satisfy '^'")
	}
}

func TestPatternOnlyWildcards(t *testing.T) {
	f := filter.Parse("*$image,domain=x.com")
	p, err := compilePattern(f)
	if err != nil {
		t.Fatal(err)
	}
	if !matches(p, "http://anything.example/at/all") {
		t.Error("wildcard-only pattern should match everything")
	}
}

// TestPatternEdgeWildcardFloats: a '*' next to an anchor lets the pattern
// float, as in Adblock Plus — "foo*|" does not require "foo" at the end,
// "|*foo" does not require it at 0 — while "||*foo" still starts at a host
// boundary. Each verdict is also held to regexpOracle.
func TestPatternEdgeWildcardFloats(t *testing.T) {
	for _, c := range []struct {
		line, url string
		want      bool
	}{
		{"foo*|", "http://x.com/foo/bar", true},
		{"foo*|", "http://x.com/bar", false},
		{"|*foo", "http://x.com/foo", true},
		{"|*foo^", "http://x.com/foo/x", true},
		{"||*foo", "http://x.com/foo", true},
		{"||*^", "http://x.com", true},
		{"||.**|", "http://..b/?", true},
		{"||a.*|", "http://a.b/c", true},
		{"||a.*|", "http://b.c/a.", false},
		{"|*|", "http://x.com/", true},
	} {
		f := filter.Parse(c.line)
		if got := matches(compile(t, c.line), c.url); got != c.want {
			t.Errorf("%q on %q = %v, want %v", c.line, c.url, got, c.want)
		}
		if oracle := regexpOracle(f).MatchString(strings.ToLower(c.url)); oracle != c.want {
			t.Errorf("regexpOracle: %q on %q = %v, want %v", c.line, c.url, oracle, c.want)
		}
	}
}

// TestMatchLinear: one match is linear in the URL. In each shape the first
// segment matches at every other byte and the last nowhere, so a matcher
// that retried later placements would be quadratic (worse end-anchored);
// at 1 MiB each must decide in under 50 ms.
func TestMatchLinear(t *testing.T) {
	const size = 1 << 20
	path := "http://x.com/" + strings.Repeat("a/", size/2)
	host := "http://" + strings.Repeat("a.", size/2) + "/"
	for _, c := range []struct{ line, url string }{
		{"a/*zzz", path},
		{"||a.*zzz", host},
		{"a/*a/*zzz|", path},
	} {
		p := compile(t, c.line)
		lower := strings.ToLower(c.url)
		bounds := appendDomainBoundaries(nil, lower)
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if p.match(c.url, lower, bounds) {
				t.Fatalf("%q matched a URL without its last segment", c.line)
			}
			best = min(best, time.Since(start))
		}
		if best > 50*time.Millisecond {
			t.Errorf("%q on a %d-byte URL took %v, want under 50ms", c.line, len(c.url), best)
		}
	}
}

func TestDomainBoundaries(t *testing.T) {
	got := appendDomainBoundaries(nil, "http://a.b.example.com/p.q/r")
	want := []int{7, 9, 11, 19} // after "://", after each dot in host only
	if len(got) != len(want) {
		t.Fatalf("boundaries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boundaries = %v, want %v", got, want)
		}
	}
}

func TestFilterKeyword(t *testing.T) {
	tests := []struct{ text, want string }{
		{"||adzerk.net^", "adzerk"},
		{"||stats.g.doubleclick.net^", "doubleclick"},
		{"/ad-frame/", "frame"}, // "ad" too short, "frame" bounded by - and /
		{"|http://x/*keyword.js", "http"},
		{"||ab.cd^", ""}, // all runs shorter than 3
		{"*adservice*", ""},
	}
	for _, tt := range tests {
		if got := filterKeyword(tt.text); got != tt.want {
			t.Errorf("filterKeyword(%q) = %q, want %q", tt.text, got, tt.want)
		}
	}
}

func TestURLKeywords(t *testing.T) {
	kws := urlKeywords(nil, "http://stats.g.doubleclick.net/r/collect")
	has := func(k string) bool {
		for _, x := range kws {
			if x == k {
				return true
			}
		}
		return false
	}
	if !has("stats") || !has("doubleclick") || !has("net") || !has("collect") {
		t.Errorf("keywords = %v", kws)
	}
	if has("g") || has("r") {
		t.Errorf("short runs should be excluded: %v", kws)
	}
}

// Property: for every filter built from a literal path, the keyword-indexed
// and direct pattern matches agree on URLs containing that path.
func TestQuickKeywordSoundness(t *testing.T) {
	words := []string{"banner", "track", "pixel", "adframe", "promo", "widget"}
	prop := func(wi, hostSeed uint8, block bool) bool {
		w := words[int(wi)%len(words)]
		line := "/" + w + "/"
		f := filter.Parse(line)
		p, err := compilePattern(f)
		if err != nil {
			return false
		}
		url := "http://h" + string('a'+hostSeed%26) + ".example/" + w + "/x.gif"
		kw := filterKeyword(anchoredText(p, f.Pattern))
		if kw == "" {
			return true // slow bucket — always probed
		}
		for _, k := range urlKeywords(nil, strings.ToLower(url)) {
			if k == kw {
				return matches(p, url) // bucket hit must imply a real check
			}
		}
		// Bucket miss must imply the pattern cannot match.
		return !matches(p, url)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: matchSegAt never consumes more bytes than remain.
func TestQuickSegConsumption(t *testing.T) {
	prop := func(urlSeed, segSeed []byte) bool {
		alphabet := "ab/.^:x"
		build := func(seed []byte, allowCaret bool) string {
			var b strings.Builder
			for _, s := range seed {
				c := alphabet[int(s)%len(alphabet)]
				if !allowCaret && c == '^' {
					c = '.'
				}
				b.WriteByte(c)
			}
			return b.String()
		}
		url := build(urlSeed, false)
		seg := build(segSeed, true)
		for pos := 0; pos <= len(url); pos++ {
			if n, ok := matchSegAt(url, pos, seg); ok {
				if pos+n > len(url) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLowerASCII(t *testing.T) {
	if lowerASCII("HTTP://Example.COM/AdS") != "http://example.com/ads" {
		t.Error("lowerASCII failed")
	}
	s := "already-lower/123%"
	if lowerASCII(s) != s {
		t.Error("lowerASCII changed a lowercase string")
	}
}

func TestLiteralRegexOptimization(t *testing.T) {
	// "/ad-frame/" (no metacharacters) compiles to a substring pattern
	// that still matches exactly what the regex would.
	f := filter.Parse("/ad-frame/")
	p, err := compilePattern(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.re != nil {
		t.Error("literal regex still compiled to regexp")
	}
	if !matches(p, "http://x.com/a/ad-frame/1.gif") {
		t.Error("literal regex should match its substring")
	}
	if matches(p, "http://x.com/a/ad_frame/1.gif") {
		t.Error("substring must be exact")
	}
	// Metacharacters keep the regexp path.
	g := filter.Parse(`/banner[0-9]+/`)
	q, err := compilePattern(g)
	if err != nil {
		t.Fatal(err)
	}
	if q.re == nil {
		t.Error("real regex lost its regexp")
	}
	// Literal regexes stay in the slow bucket: their edge runs have no
	// boundary characters, so a keyword could miss URLs where the text
	// abuts longer runs ("bad-frames").
	if kw := filterKeyword("ad-frame"); kw != "" {
		t.Errorf("keyword = %q, want none", kw)
	}
}

func TestLiteralRegexCaretStaysRegex(t *testing.T) {
	// '^' inside a slash-delimited filter is a regex anchor, not the
	// Adblock separator; it must stay on the regexp path.
	f := filter.Parse("/^http:/")
	p, err := compilePattern(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.re == nil {
		t.Fatal("anchored regex optimized away")
	}
	if !matches(p, "http://x.com/") || matches(p, "https://x.com/?u=http://y") {
		t.Error("regex anchor semantics broken")
	}
}
