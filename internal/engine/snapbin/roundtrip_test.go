package snapbin_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"acceptableads/internal/engine"
	"acceptableads/internal/engine/snapbin"
	"acceptableads/internal/filter"
	"acceptableads/internal/xrand"
)

// The round-trip differential test: an engine built from an exotic corpus
// (regex, $match-case, sitekey, $domain, profiles, element hiding) must be
// indistinguishable after encode → decode — verdicts AND winning-filter
// identities, in every evaluation mode.

// genCorpusLine draws one filter line from a grammar covering every form
// the codec must carry: host-anchored patterns (dense keys so the host
// index engages), regex filters (literal and real), keyword-less slow-path
// patterns, $match-case, $domain=, $sitekey=, $donottrack, and exceptions.
func genCorpusLine(rng *xrand.RNG) string {
	hosts := []string{"adzerk.net", "cdn.served.net", "cdn.served.net", "track.io", "ads.example.com"}
	paths := []string{"/ads/", "/r/collect", "/gampad/ads.js", "/px-", "/b_n/"}
	words := []string{"banner", "sponsor", "promo", "track", "metrics", "beacon"}
	switch rng.Intn(12) {
	case 0: // regex: literal and real
		res := []string{"/ad-frame/", "/falk-ad/", "/ads[0-9]+/", "/^https?:..crumb/"}
		return res[rng.Intn(len(res))]
	case 1: // keyword-less → slow bucket
		short := []string{"ad*", "*ad^", "^x^", "||io^"}
		return short[rng.Intn(len(short))]
	case 2:
		return "||" + hosts[rng.Intn(len(hosts))] + "^$match-case"
	case 3:
		return "||" + hosts[rng.Intn(len(hosts))] + "^$domain=shop.example|~mail.shop.example"
	case 4:
		return "@@||" + hosts[rng.Intn(len(hosts))] + paths[rng.Intn(len(paths))] + "$sitekey=MFwwDQYJKwEAAQ,document"
	case 5:
		return "||" + hosts[rng.Intn(len(hosts))] + "^$donottrack"
	case 6:
		return "##." + words[rng.Intn(len(words))] + "-slot"
	case 7:
		return "shop.example###" + words[rng.Intn(len(words))]
	case 8:
		return "#@#." + words[rng.Intn(len(words))] + "-slot"
	case 9:
		opts := []string{"$script", "$image,third-party", "$~third-party", "$object"}
		return "/" + words[rng.Intn(len(words))] + "-" + words[rng.Intn(len(words))] + "/" + opts[rng.Intn(len(opts))]
	default:
		line := "||" + hosts[rng.Intn(len(hosts))] + "^"
		if rng.Intn(3) == 0 {
			line += "$third-party"
		}
		if rng.Intn(4) == 0 {
			line = "@@" + line
		}
		return line
	}
}

func genCorpusRequest(rng *xrand.RNG) *engine.Request {
	hosts := []string{
		"adzerk.net", "static.adzerk.net", "cdn.served.net", "a.cdn.served.net",
		"track.io", "ads.example.com", "plain.example",
	}
	paths := []string{"", "/", "/ads/banner.gif", "/r/collect", "/gampad/ads.js?q=1", "/px-7", "/b_n/x"}
	docs := []string{"shop.example", "mail.shop.example", "news.example", "adzerk.net"}
	types := []filter.ContentType{filter.TypeScript, filter.TypeImage, filter.TypeSubdocument, filter.TypeObject}
	url := "http://" + hosts[rng.Intn(len(hosts))] + paths[rng.Intn(len(paths))]
	if rng.Intn(4) == 0 {
		url = strings.ToUpper(url[:len(url)/2]) + url[len(url)/2:]
	}
	req := &engine.Request{
		URL:          url,
		Type:         types[rng.Intn(len(types))],
		DocumentHost: docs[rng.Intn(len(docs))],
	}
	if rng.Intn(5) == 0 {
		req.Sitekey = "MFwwDQYJKwEAAQ"
	}
	return req
}

// buildCorpusEngine constructs the original engine the tests encode.
func buildCorpusEngine(t testing.TB) *engine.Engine {
	t.Helper()
	rng := xrand.New(20260808)
	lists := []struct{ name, text string }{}
	for _, name := range []string{"easylist", "exceptionrules"} {
		var lines []string
		for i := 0; i < 600; i++ {
			line := genCorpusLine(rng)
			if name == "exceptionrules" && rng.Intn(3) == 0 && !strings.HasPrefix(line, "@@") &&
				!strings.HasPrefix(line, "#") && !strings.Contains(line, "##") {
				line = "@@" + line
			}
			lines = append(lines, line)
		}
		lists = append(lists, struct{ name, text string }{name, strings.Join(lines, "\n")})
	}
	b := engine.NewBuilder()
	for _, l := range lists {
		if err := b.Add(l.name, filter.ParseListString(l.name, l.text)); err != nil {
			t.Fatalf("add %s: %v", l.name, err)
		}
	}
	if err := b.Profile("easy-only", "easylist"); err != nil {
		t.Fatal(err)
	}
	if err := b.Profile("pair", "easylist", "exceptionrules"); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func matchIdent(m *engine.Match) string {
	if m == nil {
		return "<none>"
	}
	return m.List + "\x00" + m.Filter.Raw
}

func TestRoundTripDifferential(t *testing.T) {
	orig := buildCorpusEngine(t)
	buf, err := snapbin.Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapbin.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}

	if o, d := orig.NumFilters(), dec.NumFilters(); o != d {
		t.Fatalf("NumFilters: orig %d decoded %d", o, d)
	}
	if o, d := orig.Lists(), dec.Lists(); !reflect.DeepEqual(o, d) {
		t.Fatalf("Lists: orig %v decoded %v", o, d)
	}
	if o, d := orig.Profiles(), dec.Profiles(); !reflect.DeepEqual(o, d) {
		t.Fatalf("Profiles: orig %v decoded %v", o, d)
	}
	for _, l := range orig.Lists() {
		if o, d := orig.ListFilters(l), dec.ListFilters(l); o != d {
			t.Fatalf("ListFilters(%s): orig %d decoded %d", l, o, d)
		}
	}

	profiles := orig.Profiles()
	viewsO := make(map[string]*engine.View)
	viewsD := make(map[string]*engine.View)
	for _, p := range profiles {
		if viewsO[p], err = orig.View(p); err != nil {
			t.Fatal(err)
		}
		if viewsD[p], err = dec.View(p); err != nil {
			t.Fatal(err)
		}
	}

	rng := xrand.New(991)
	var trO, trD engine.Trail
	for i := 0; i < 2500; i++ {
		req := genCorpusRequest(rng)

		// Instrumented mode: verdict, DNT, and both winning identities.
		do := orig.MatchRequest(req)
		dd := dec.MatchRequest(req)
		if do.Verdict != dd.Verdict || do.DoNotTrack != dd.DoNotTrack {
			t.Fatalf("instrumented divergence on %q: orig %v/%v decoded %v/%v",
				req.URL, do.Verdict, do.DoNotTrack, dd.Verdict, dd.DoNotTrack)
		}
		if o, d := matchIdent(do.BlockedBy()), matchIdent(dd.BlockedBy()); o != d {
			t.Fatalf("blocked-by divergence on %q: orig %q decoded %q", req.URL, o, d)
		}
		if o, d := matchIdent(do.AllowedBy()), matchIdent(dd.AllowedBy()); o != d {
			t.Fatalf("allowed-by divergence on %q: orig %q decoded %q", req.URL, o, d)
		}

		// Short-circuit (production) mode.
		so := orig.MatchRequest(req, engine.WithShortCircuit())
		sd := dec.MatchRequest(req, engine.WithShortCircuit())
		if so.Verdict != sd.Verdict || matchIdent(so.BlockedBy()) != matchIdent(sd.BlockedBy()) ||
			matchIdent(so.AllowedBy()) != matchIdent(sd.AllowedBy()) {
			t.Fatalf("short-circuit divergence on %q", req.URL)
		}

		// Linear (index-free) mode.
		lo := orig.MatchRequest(req, engine.WithLinearScan())
		ld := dec.MatchRequest(req, engine.WithLinearScan())
		if lo.Verdict != ld.Verdict {
			t.Fatalf("linear divergence on %q: orig %v decoded %v", req.URL, lo.Verdict, ld.Verdict)
		}

		// Every profile view.
		for _, p := range profiles {
			vo := viewsO[p].MatchRequest(req)
			vd := viewsD[p].MatchRequest(req)
			if vo.Verdict != vd.Verdict || matchIdent(vo.BlockedBy()) != matchIdent(vd.BlockedBy()) ||
				matchIdent(vo.AllowedBy()) != matchIdent(vd.AllowedBy()) {
				t.Fatalf("view %q divergence on %q", p, req.URL)
			}
		}

		// Diff: dual-profile single pass, responsible filter included.
		fo := orig.Diff(req, viewsO["easy-only"], viewsO["pair"])
		fd := dec.Diff(req, viewsD["easy-only"], viewsD["pair"])
		if !reflect.DeepEqual(fo, fd) {
			t.Fatalf("diff divergence on %q:\norig    %+v\ndecoded %+v", req.URL, fo, fd)
		}

		// Explain trails: the decoded index must not just agree on the
		// outcome, it must walk the same candidates through the same
		// structures.
		orig.MatchRequest(req, engine.WithExplain(&trO))
		dec.MatchRequest(req, engine.WithExplain(&trD))
		if !reflect.DeepEqual(trO, trD) {
			t.Fatalf("explain trail divergence on %q:\norig    %+v\ndecoded %+v", req.URL, trO, trD)
		}
	}

	// Page-level allowances (sitekey/$document path) and the element
	// hiding stylesheet.
	for _, page := range []string{"http://adzerk.net/", "http://shop.example/x", "http://news.example/"} {
		for _, key := range []string{"", "MFwwDQYJKwEAAQ"} {
			po := orig.PagePermissions(page, key)
			pd := dec.PagePermissions(page, key)
			if po.DocumentAllowed != pd.DocumentAllowed || po.ElemHideDisabled != pd.ElemHideDisabled {
				t.Fatalf("page permissions divergence on %q key %q: orig %+v decoded %+v", page, key, po, pd)
			}
		}
	}
	for _, host := range []string{"shop.example", "news.example", "adzerk.net"} {
		if o, d := orig.ElemHideCSS(host), dec.ElemHideCSS(host); o != d {
			t.Fatalf("stylesheet divergence for %q", host)
		}
	}
}

// TestDecodeFrameErrors pins the decode failure modes the warm-start path
// distinguishes: wrong magic, version skew, checksum damage, truncation.
func TestDecodeFrameErrors(t *testing.T) {
	orig := buildCorpusEngine(t)
	buf, err := snapbin.Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapbin.Decode(buf); err != nil {
		t.Fatalf("valid snapshot failed to decode: %v", err)
	}

	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xff
	if _, err := snapbin.Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: got %v", err)
	}

	bad = append([]byte(nil), buf...)
	bad[8]++ // format version byte
	if _, err := snapbin.Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version skew: got %v", err)
	}

	bad = append([]byte(nil), buf...)
	bad[len(bad)/2] ^= 0x10 // payload bit flip
	if _, err := snapbin.Decode(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("bit flip: got %v", err)
	}

	for _, cut := range []int{0, 7, 19, 20, len(buf) / 3, len(buf) - 1} {
		if _, err := snapbin.Decode(buf[:cut]); err == nil {
			t.Errorf("truncation at %d decoded successfully", cut)
		}
	}
}

// goldenEncodeSHA256 is the SHA-256 of snapbin.Encode over the engine
// goldenEngine builds. Encoding is a pure function of the frozen layout and
// the list and profile tables, so any change to how the index is frozen,
// or to what a built engine carries into its arenas, moves this hash. A
// deliberate format or layout change regenerates it from the test's
// failure message.
const goldenEncodeSHA256 = "8b0b9f482f1160279295be043f5f198440249c8ed9bb23d9ad575a1a4527438b"

// goldenEngine is a fixed two-list engine with one extra profile over the
// exotic corpus.
func goldenEngine(t *testing.T) *engine.Engine {
	t.Helper()
	rng := xrand.New(7)
	b := engine.NewBuilder()
	for _, name := range []string{"easylist", "exceptionrules"} {
		var lines []string
		for i := 0; i < 400; i++ {
			lines = append(lines, genCorpusLine(rng))
		}
		if err := b.Add(name, filter.ParseListString(name, strings.Join(lines, "\n"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Profile("easy-only", "easylist"); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

// TestEncodeGolden pins the encoded bytes of a fixed engine.
func TestEncodeGolden(t *testing.T) {
	buf, err := snapbin.Encode(goldenEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != goldenEncodeSHA256 {
		t.Errorf("Encode SHA-256 = %s over %d bytes, want %s", got, len(buf), goldenEncodeSHA256)
	}
}
