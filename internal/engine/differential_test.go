package engine

import (
	"regexp"
	"strings"
	"testing"

	"acceptableads/internal/filter"
	"acceptableads/internal/xrand"
)

// This file differentially tests the compiled segment matcher against an
// independent oracle: the regexp translation Adblock Plus itself documents
// (anchors, '^' separator class, '*' wildcard). Random filters drawn from
// a grammar are matched against random URLs by both implementations; any
// disagreement is a bug in one of them.

// regexpOracle translates a parsed request filter to a regexp.
func regexpOracle(f *filter.Filter) *regexp.Regexp {
	expr := regexp.QuoteMeta(strings.ToLower(f.Pattern))
	expr = strings.ReplaceAll(expr, `\*`, ".*")
	expr = strings.ReplaceAll(expr, `\^`, `(?:[^a-z0-9_\-.%]|$)`)
	switch {
	case f.AnchorDomain:
		// "||" matches right after the scheme or after a dot inside
		// the hostname.
		expr = `^[a-z][a-z0-9+.-]*://(?:[^/?#:]*\.)?` + expr
	case f.AnchorStart:
		expr = "^" + expr
	}
	if f.AnchorEnd {
		expr += "$"
	}
	return regexp.MustCompile(expr)
}

// genPattern draws a random filter pattern from a grammar covering the
// interesting structure: host-ish literals, separators, wildcards,
// anchors. One in three is drawn from a small alphabet instead, where
// several '*', a '*' next to an anchor, and segments that recur in a
// genURL URL are all common.
func genPattern(rng *xrand.RNG) string {
	if rng.Intn(3) == 0 {
		var b strings.Builder
		b.WriteString([]string{"", "|", "||"}[rng.Intn(3)])
		for n := 1 + rng.Intn(8); n > 0; n-- {
			b.WriteByte("a/.^*b"[rng.Intn(6)])
		}
		if s := b.String(); len(s) > 1 && s[0] == '/' && s[len(s)-1] == '/' {
			b.WriteByte('a') // keep it off the /regex/ syntax
		}
		if rng.Intn(3) == 0 {
			b.WriteString("|")
		}
		return b.String()
	}
	hosts := []string{"adzerk.net", "ads.example.com", "track.io", "a.b.c.d"}
	paths := []string{"/ads/", "/r/collect", "/x", "/gampad/ads.js", "/p-q_r%7e"}
	var b strings.Builder
	anchor := rng.Intn(3)
	switch anchor {
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
	if rng.Intn(3) == 0 {
		b.WriteString("*")
		b.WriteString(paths[rng.Intn(len(paths))][1:])
	}
	if rng.Intn(4) == 0 {
		b.WriteString("^")
	}
	if rng.Intn(5) == 0 {
		b.WriteString("|")
	}
	return b.String()
}

// genURL draws a URL that has a fighting chance of matching. One in three
// is built from short runs over genPattern's small alphabet, each repeated
// up to three times, so a segment can match at several starts.
func genURL(rng *xrand.RNG) string {
	if rng.Intn(3) == 0 {
		var b strings.Builder
		b.WriteString("http://")
		writeRuns(&b, rng, "ab.")
		b.WriteByte('/')
		writeRuns(&b, rng, "ab./?")
		return b.String()
	}
	schemes := []string{"http://", "https://"}
	hosts := []string{
		"adzerk.net", "static.adzerk.net", "ads.example.com",
		"xads.example.com", "track.io", "nottrack.io", "a.b.c.d",
		"evil.com",
	}
	paths := []string{
		"", "/", "/ads/", "/ads/banner.gif", "/r/collect", "/x",
		"/gampad/ads.js", "/gampad/ads.js?q=1", "/p-q_r%7e/x",
		"/redir?to=http://adzerk.net/ads/",
	}
	return schemes[rng.Intn(2)] + hosts[rng.Intn(len(hosts))] + paths[rng.Intn(len(paths))]
}

// writeRuns appends up to four runs of one to three bytes of alphabet,
// each repeated one to three times.
func writeRuns(b *strings.Builder, rng *xrand.RNG, alphabet string) {
	for n := rng.Intn(5); n > 0; n-- {
		run := make([]byte, 1+rng.Intn(3))
		for i := range run {
			run[i] = alphabet[rng.Intn(len(alphabet))]
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			b.Write(run)
		}
	}
}

func TestDifferentialPatternVsRegexp(t *testing.T) {
	rng := xrand.New(20150428)
	for i := 0; i < 5000; i++ {
		line := genPattern(rng)
		f := filter.Parse(line)
		if !f.IsActive() || f.IsRegex {
			continue
		}
		pat, err := compilePattern(f)
		if err != nil {
			t.Fatalf("compile %q: %v", line, err)
		}
		oracle := regexpOracle(f)
		for j := 0; j < 20; j++ {
			url := genURL(rng)
			lower := strings.ToLower(url)
			got := pat.match(url, lower, appendDomainBoundaries(nil, lower))
			want := oracle.MatchString(lower)
			if got != want {
				t.Fatalf("divergence: filter %q url %q: compiled=%v oracle=%v",
					line, url, got, want)
			}
		}
	}
}

// FuzzPatternVsRegexp holds the compiled matcher to regexpOracle on
// arbitrary filter lines and URLs. Inputs outside the oracle's domain are
// skipped: non-printable ASCII (the regexp works on runes, the matcher on
// bytes), $match-case and /regex/ filters, and '||' filters on URLs that
// do not start with a scheme (the oracle's '||' needs one).
func FuzzPatternVsRegexp(f *testing.F) {
	for _, seed := range [][2]string{
		{"a/*zzz", "http://x.com/a/a/a/a/zz"},
		{"||a.*zzz", "http://a.a.a.a.a/zz"},
		{"a/*a/*zzz|", "http://x.com/a/a/a/zzz/"},
		{"foo*|", "http://x.com/foo/bar"},
		{"|*foo", "http://x.com/foo"},
		{"||*foo", "http://x.com/foo"},
		{"||.**|", "http://..b/?"},
		{"||adzerk.net^", "http://static.adzerk.net:8080/x"},
		{"banner^ad^*x^", "http://x.com/banner/ad?x"},
	} {
		f.Add(seed[0], seed[1])
	}
	scheme := regexp.MustCompile(`^[a-z][a-z0-9+.-]*://`)
	f.Fuzz(func(t *testing.T, line, url string) {
		for _, s := range []string{line, url} {
			for i := 0; i < len(s); i++ {
				if s[i] < ' ' || s[i] > '~' {
					return
				}
			}
		}
		fl := filter.Parse(line)
		if fl.Kind != filter.KindRequestBlock && fl.Kind != filter.KindRequestException || fl.IsRegex || fl.MatchCase {
			return
		}
		lower := strings.ToLower(url)
		if fl.AnchorDomain && !scheme.MatchString(lower) {
			return
		}
		pat, err := compilePattern(fl)
		if err != nil {
			t.Fatalf("compile %q: %v", line, err)
		}
		got := pat.match(url, lower, appendDomainBoundaries(nil, lower))
		if want := regexpOracle(fl).MatchString(lower); got != want {
			t.Fatalf("filter %q url %q: compiled=%v oracle=%v", line, url, got, want)
		}
	})
}

// TestDifferentialKeywordIndex: for the same random filters, an engine
// built over them must agree with a direct per-filter scan — the keyword
// bucketing must never lose a match.
func TestDifferentialKeywordIndex(t *testing.T) {
	rng := xrand.New(988)
	var lines []string
	for i := 0; i < 300; i++ {
		lines = append(lines, genPattern(rng))
	}
	e, err := New(NamedList{Name: "l", List: filter.ParseListString("l", strings.Join(lines, "\n"))})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2000; j++ {
		url := genURL(rng)
		req := &Request{URL: url, Type: filter.TypeImage, DocumentHost: "first-party.example"}
		indexed := e.MatchRequest(req).Verdict
		linear := e.MatchRequest(req, WithLinearScan()).Verdict
		if indexed != linear {
			t.Fatalf("index divergence on %q: indexed=%v linear=%v", url, indexed, linear)
		}
	}
}

// genExoticLine widens genPattern into full filter lines exercising every
// corner the unified index must handle: '||' anchors, $match-case, regex
// filters (literal and real), keyword-less patterns that land in the slow
// bucket, type/domain/party options, exceptions, and $donottrack.
func genExoticLine(rng *xrand.RNG) string {
	switch rng.Intn(10) {
	case 0: // regex filters: literal (substring-compiled) and real
		res := []string{"/ad-frame/", "/banner/", "/ads[0-9]+/", "/^https?:..track/"}
		return res[rng.Intn(len(res))]
	case 1: // keyword-less: every run too short or wildcard-bounded
		short := []string{"ad*", "*ad^", "^x^", "a.b*", "||io^"}
		return short[rng.Intn(len(short))]
	case 2:
		return genPattern(rng) + "$match-case"
	case 3:
		opts := []string{"$script", "$image,script", "$third-party", "$~third-party",
			"$domain=first-party.example", "$domain=~other.example"}
		return genPattern(rng) + opts[rng.Intn(len(opts))]
	case 4:
		return genPattern(rng) + "$donottrack"
	default:
		return genPattern(rng)
	}
}

// genExoticURL is genURL with occasional uppercase runs, so $match-case and
// case-folding paths are exercised.
func genExoticURL(rng *xrand.RNG) string {
	url := genURL(rng)
	if rng.Intn(3) == 0 {
		url = strings.ToUpper(url[:len(url)/2]) + url[len(url)/2:]
	}
	return url
}

// TestDifferentialUnifiedIndex: the hash-keyed unified index must agree
// with the index-free linear scan on every evaluation mode, over a corpus
// that includes '||'-anchored, $match-case, regex, keyword-less and
// exception filters. DNT signalling is checked against a direct scan of
// the DNT roles, since the linear mode does not evaluate it.
func TestDifferentialUnifiedIndex(t *testing.T) {
	rng := xrand.New(20260806)
	var lines []string
	for i := 0; i < 400; i++ {
		line := genExoticLine(rng)
		if rng.Intn(4) == 0 {
			line = "@@" + line
		}
		lines = append(lines, line)
	}
	e, err := New(NamedList{Name: "l", List: filter.ParseListString("l", strings.Join(lines, "\n"))})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3000; j++ {
		url := genExoticURL(rng)
		req := &Request{URL: url, Type: filter.TypeImage, DocumentHost: "first-party.example"}
		inst := e.MatchRequest(req)
		if lin := e.MatchRequest(req, WithLinearScan()).Verdict; inst.Verdict != lin {
			t.Fatalf("instrumented divergence on %q: indexed=%v linear=%v", url, inst.Verdict, lin)
		}
		fast := e.MatchRequest(req, WithShortCircuit())
		if lin := e.MatchRequest(req, WithShortCircuit(), WithLinearScan()).Verdict; fast.Verdict != lin {
			t.Fatalf("short-circuit divergence on %q: indexed=%v linear=%v", url, fast.Verdict, lin)
		}
		// Production short-circuit semantics: a verdict iff a blocker matched.
		if blocked := e.index.findLinear(req, roleBlocking, e.allMask, nil) != nil; blocked != (fast.Verdict != NoMatch) {
			t.Fatalf("short-circuit blocker mismatch on %q: blocked=%v verdict=%v", url, blocked, fast.Verdict)
		}
		wantDNT := e.index.findLinear(req, roleDNT, e.allMask, nil) != nil &&
			e.index.findLinear(req, roleDNTException, e.allMask, nil) == nil
		if inst.DoNotTrack != wantDNT {
			t.Fatalf("DNT divergence on %q: got %v want %v", url, inst.DoNotTrack, wantDNT)
		}
	}
}

// Property: exception precedence. For any pattern, loading it as a block
// filter plus the identical text as an exception must always yield Allowed
// whenever the block alone yields Blocked.
func TestQuickExceptionPrecedence(t *testing.T) {
	rng := xrand.New(7551)
	for i := 0; i < 300; i++ {
		line := genPattern(rng)
		f := filter.Parse(line)
		if !f.IsActive() {
			continue
		}
		blockOnly, err := New(NamedList{Name: "b", List: filter.ParseListString("b", line)})
		if err != nil {
			continue
		}
		both, err := New(
			NamedList{Name: "b", List: filter.ParseListString("b", line)},
			NamedList{Name: "x", List: filter.ParseListString("x", "@@"+line)},
		)
		if err != nil {
			t.Fatalf("exception for %q failed to compile: %v", line, err)
		}
		for j := 0; j < 10; j++ {
			req := &Request{URL: genURL(rng), Type: filter.TypeImage, DocumentHost: "fp.example"}
			if blockOnly.MatchRequest(req).Verdict == Blocked {
				if v := both.MatchRequest(req).Verdict; v != Allowed {
					t.Fatalf("precedence violated for %q on %q: %v", line, req.URL, v)
				}
			}
		}
	}
}
