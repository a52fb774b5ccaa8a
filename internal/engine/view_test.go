package engine

import (
	"strings"
	"sync"
	"testing"

	"acceptableads/internal/filter"
	"acceptableads/internal/htmldom"
	"acceptableads/internal/xrand"
)

func mustProfile(t *testing.T, e *Engine, name string, lists ...string) *View {
	t.Helper()
	if err := e.addProfile(name, lists...); err != nil {
		t.Fatal(err)
	}
	v, err := e.View(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestProfileRegistration(t *testing.T) {
	e := mustEngine(t,
		listOf("easylist", "||a.example^"),
		listOf("exceptionrules", "@@||a.example/ok/"),
	)
	if err := e.addProfile("easylist", "easylist"); err != nil {
		t.Fatal(err)
	}
	if err := e.addProfile("easylist", "easylist"); err == nil {
		t.Error("duplicate profile accepted")
	}
	if err := e.addProfile("bad", "nosuchlist"); err == nil {
		t.Error("unknown list accepted")
	}
	if err := e.addProfile("", "easylist"); err == nil {
		t.Error("empty profile name accepted")
	}
	if err := e.addProfile("empty"); err == nil {
		t.Error("empty list set accepted")
	}
	if got := e.Profiles(); len(got) != 2 || got[0] != "easylist" || got[1] != "full" {
		t.Errorf("Profiles() = %v, want [easylist full]", got)
	}
	if got := e.ProfileLists("full"); len(got) != 2 || got[0] != "easylist" || got[1] != "exceptionrules" {
		t.Errorf("ProfileLists(full) = %v", got)
	}
	if _, err := e.View("nope"); err == nil || !strings.Contains(err.Error(), "easylist") {
		t.Errorf("View(nope) error %v should name the valid profiles", err)
	}
	// The empty name resolves to the default (full) profile.
	v, err := e.View("")
	if err != nil || v.Name() != DefaultProfile {
		t.Errorf("View(\"\") = %v, %v; want the %s profile", v, err, DefaultProfile)
	}
}

func TestDuplicateListRejected(t *testing.T) {
	b := NewBuilder()
	if err := b.Add("l", filter.ParseListString("l", "||a.example^")); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("l", filter.ParseListString("l", "||b.example^")); err == nil {
		t.Error("duplicate list name accepted")
	}
}

// TestViewDifferentialVsFreshEngine is the profile-correctness anchor:
// matching through View("easylist") of a multi-list engine must be
// indistinguishable — verdicts, winning filters, DNT, page permissions,
// element hiding — from a fresh engine built from EasyList alone, over
// the exotic corpus ($match-case, regex, keyword-less, sitekey,
// $document/$elemhide, exceptions) in every evaluation mode.
func TestViewDifferentialVsFreshEngine(t *testing.T) {
	rng := xrand.New(20260808)
	var elLines []string
	for i := 0; i < 300; i++ {
		line := genExoticLine(rng)
		if rng.Intn(5) == 0 {
			line = "@@" + line
		}
		elLines = append(elLines, line)
	}
	// Page-permission and element-hiding corners the generator does not
	// reach: sitekey grants, $document/$elemhide exceptions, hides and
	// hide exceptions.
	elLines = append(elLines,
		"@@||sk.example^$document,sitekey=c2l0ZWtleQ",
		"@@||docallow.example^$document",
		"@@||ehoff.example^$elemhide",
		"##.ad-banner",
		"###sponsor",
	)
	var aaLines []string
	for i := 0; i < 150; i++ {
		aaLines = append(aaLines, "@@"+genExoticLine(rng))
	}
	aaLines = append(aaLines,
		"@@||docallow-aa.example^$document",
		"easylist-only.example#@#.ad-banner",
	)

	elText := strings.Join(elLines, "\n")
	aaText := strings.Join(aaLines, "\n")

	combined := mustEngine(t,
		listOf("easylist", elText),
		listOf("exceptionrules", aaText),
	)
	fresh := mustEngine(t, listOf("easylist", elText))
	view := mustProfile(t, combined, "easylist", "easylist")

	modes := map[string][]MatchOption{
		"instrumented":         nil,
		"short-circuit":        {WithShortCircuit()},
		"linear":               {WithLinearScan()},
		"short-circuit+linear": {WithShortCircuit(), WithLinearScan()},
	}
	sameMatch := func(a, b *Match) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		return a == nil || (a.Filter.Raw == b.Filter.Raw && a.List == b.List)
	}
	for j := 0; j < 2000; j++ {
		url := genExoticURL(rng)
		for mode, opts := range modes {
			vreq := &Request{URL: url, Type: filter.TypeImage, DocumentHost: "first-party.example"}
			freq := &Request{URL: url, Type: filter.TypeImage, DocumentHost: "first-party.example"}
			dv := view.MatchRequest(vreq, opts...)
			df := fresh.MatchRequest(freq, opts...)
			if dv.Verdict != df.Verdict || dv.DoNotTrack != df.DoNotTrack {
				t.Fatalf("%s divergence on %q: view %v/%v fresh %v/%v",
					mode, url, dv.Verdict, dv.DoNotTrack, df.Verdict, df.DoNotTrack)
			}
			if !sameMatch(dv.BlockedBy(), df.BlockedBy()) || !sameMatch(dv.AllowedBy(), df.AllowedBy()) {
				t.Fatalf("%s winner divergence on %q: view %+v/%+v fresh %+v/%+v",
					mode, url, dv.BlockedBy(), dv.AllowedBy(), df.BlockedBy(), df.AllowedBy())
			}
		}
		// Explained matches must agree too (and report the same winners).
		vreq := &Request{URL: url, Type: filter.TypeScript, DocumentHost: "first-party.example"}
		freq := &Request{URL: url, Type: filter.TypeScript, DocumentHost: "first-party.example"}
		var tv, tf Trail
		view.MatchRequest(vreq, WithExplain(&tv))
		fresh.MatchRequest(freq, WithExplain(&tf))
		if tv.Verdict != tf.Verdict {
			t.Fatalf("explain divergence on %q: view %s fresh %s", url, tv.Verdict, tf.Verdict)
		}
		if (tv.Block == nil) != (tf.Block == nil) || (tv.Block != nil && *tv.Block != *tf.Block) {
			t.Fatalf("explain block divergence on %q: view %+v fresh %+v", url, tv.Block, tf.Block)
		}
	}

	// Page permissions: sitekey and $document/$elemhide grants must look
	// identical through the view, and AA-only grants must not leak in.
	pages := []struct{ url, sitekey string }{
		{"http://sk.example/page", "c2l0ZWtleQ"},
		{"http://sk.example/page", ""},
		{"http://docallow.example/", ""},
		{"http://ehoff.example/", ""},
		{"http://docallow-aa.example/", ""},
		{"http://plain.example/", ""},
	}
	for _, p := range pages {
		fv := view.PagePermissions(p.url, p.sitekey)
		ff := fresh.PagePermissions(p.url, p.sitekey)
		if fv.DocumentAllowed != ff.DocumentAllowed || fv.ElemHideDisabled != ff.ElemHideDisabled {
			t.Errorf("PagePermissions(%q, %q): view %+v fresh %+v", p.url, p.sitekey, fv, ff)
		}
	}
	full, err := combined.View(DefaultProfile)
	if err != nil {
		t.Fatal(err)
	}
	if f := full.PagePermissions("http://docallow-aa.example/", ""); !f.DocumentAllowed {
		t.Error("full view should honor the AA $document grant")
	}

	// Element hiding: the AA hide-exception for easylist-only.example must
	// not cancel the hide inside the easylist-only view, and the
	// stylesheets must agree with the fresh engine's.
	doc := htmldom.Parse(`<html><body><div class="ad-banner">x</div><p id="sponsor">y</p></body></html>`)
	hidesView := view.HideElements(doc, "http://easylist-only.example/", "easylist-only.example")
	hidesFresh := fresh.HideElements(doc, "http://easylist-only.example/", "easylist-only.example")
	if len(hidesView) != len(hidesFresh) {
		t.Fatalf("HideElements: view %d matches, fresh %d", len(hidesView), len(hidesFresh))
	}
	for i := range hidesView {
		if hidesView[i].Hidden() != hidesFresh[i].Hidden() {
			t.Errorf("hide %d: view hidden=%v fresh hidden=%v", i, hidesView[i].Hidden(), hidesFresh[i].Hidden())
		}
	}
	for _, host := range []string{"easylist-only.example", "plain.example"} {
		if v, f := view.ElemHideCSS(host), fresh.ElemHideCSS(host); v != f {
			t.Errorf("ElemHideCSS(%s): view %q fresh %q", host, v, f)
		}
	}
	// In the full view the AA exception cancels the .ad-banner hide on
	// easylist-only.example.
	for _, m := range full.HideElements(doc, "http://easylist-only.example/", "easylist-only.example") {
		if m.HiddenBy.Filter.Selector == ".ad-banner" && m.Hidden() {
			t.Error("full view should cancel the .ad-banner hide via the AA exception")
		}
	}
}

// TestEngineDiff pins the /v1/diff semantics: a request blocked by
// EasyList but excepted by the AA list reports the flipped verdicts and
// the responsible exception filter with its source list and line.
func TestEngineDiff(t *testing.T) {
	e := mustEngine(t,
		listOf("easylist", "||doubleclick.net^\n||adzerk.net^$third-party"),
		listOf("exceptionrules", "! AA exceptions\n@@||doubleclick.net/aa-ok/$image"),
	)
	el := mustProfile(t, e, "easylist", "easylist")
	full, err := e.View(DefaultProfile)
	if err != nil {
		t.Fatal(err)
	}

	req, err := NewRequest("http://ad.doubleclick.net/aa-ok/pixel.gif", "http://news.example/", filter.TypeImage)
	if err != nil {
		t.Fatal(err)
	}
	d := e.Diff(req, el, full)
	if d.A.Verdict != "blocked" || d.B.Verdict != "allowed" || !d.Flipped {
		t.Fatalf("diff = %+v, want blocked→allowed flip", d)
	}
	if d.Responsible == nil || d.Responsible.List != "exceptionrules" || d.Responsible.Line != 2 {
		t.Fatalf("responsible = %+v, want the AA exception at exceptionrules:2", d.Responsible)
	}
	if d.Responsible.Filter != "@@||doubleclick.net/aa-ok/$image" {
		t.Errorf("responsible filter = %q", d.Responsible.Filter)
	}
	if d.A.Block == nil || d.A.Block.List != "easylist" {
		t.Errorf("side A block = %+v, want the easylist blocker", d.A.Block)
	}

	// No flip when both profiles agree.
	req2, err := NewRequest("http://plain.example/app.js", "http://news.example/", filter.TypeScript)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Diff(req2, el, full); d.Flipped || d.Responsible != nil {
		t.Errorf("agreeing diff = %+v, want no flip", d)
	}
}

// TestDiffMatchesIndependentViews: over the exotic corpus, the
// single-pass Diff must report exactly what two independent per-view
// matches report.
func TestDiffMatchesIndependentViews(t *testing.T) {
	rng := xrand.New(4711)
	var elLines, aaLines []string
	for i := 0; i < 250; i++ {
		line := genExoticLine(rng)
		if rng.Intn(5) == 0 {
			line = "@@" + line
		}
		elLines = append(elLines, line)
	}
	for i := 0; i < 120; i++ {
		aaLines = append(aaLines, "@@"+genExoticLine(rng))
	}
	e := mustEngine(t,
		listOf("easylist", strings.Join(elLines, "\n")),
		listOf("exceptionrules", strings.Join(aaLines, "\n")),
	)
	el := mustProfile(t, e, "easylist", "easylist")
	full, err := e.View(DefaultProfile)
	if err != nil {
		t.Fatal(err)
	}
	sameWinner := func(tm *TrailMatch, m *Match) bool {
		if (tm == nil) != (m == nil) {
			return false
		}
		return tm == nil || (tm.Filter == m.Filter.Raw && tm.List == m.List)
	}
	for j := 0; j < 3000; j++ {
		url := genExoticURL(rng)
		req := &Request{URL: url, Type: filter.TypeImage, DocumentHost: "first-party.example"}
		d := e.Diff(req, el, full)
		for _, side := range []struct {
			got  DiffSide
			view *View
		}{{d.A, el}, {d.B, full}} {
			ind := side.view.MatchRequest(&Request{URL: url, Type: filter.TypeImage, DocumentHost: "first-party.example"})
			if side.got.Verdict != ind.Verdict.String() {
				t.Fatalf("diff/%s verdict divergence on %q: diff=%s independent=%s",
					side.got.Profile, url, side.got.Verdict, ind.Verdict)
			}
			if !sameWinner(side.got.Block, ind.BlockedBy()) || !sameWinner(side.got.Exception, ind.AllowedBy()) {
				t.Fatalf("diff/%s winner divergence on %q: diff=%+v/%+v independent=%+v/%+v",
					side.got.Profile, url, side.got.Block, side.got.Exception,
					ind.BlockedBy(), ind.AllowedBy())
			}
		}
		if d.Flipped != (d.A.Verdict != d.B.Verdict) {
			t.Fatalf("Flipped inconsistent on %q: %+v", url, d)
		}
	}
}

// TestRecorderIsolation: recording views over one engine are independent.
// Eight goroutines match one shared request slice, each through its own
// WithRecorder copy of the full or of a strict-subset profile's view,
// interleaved with matches through the shared un-recorded views. Every
// recorder must see exactly the activations a serial run of its view
// produces, and the shared views must stay recorder-free. Run under -race
// this is the concurrency guarantee of recording views.
func TestRecorderIsolation(t *testing.T) {
	e := mustEngine(t,
		listOf("easylist", "||ads.example^\n||track.example^$third-party\n/banner/"),
		listOf("exceptionrules", "@@||ads.example/ok/\n@@||cdn.example^$third-party"),
	)
	full, err := e.View(DefaultProfile)
	if err != nil {
		t.Fatal(err)
	}
	el := mustProfile(t, e, "easylist", "easylist")

	var reqs []*Request
	for _, u := range []string{
		"http://ads.example/x.js", "http://ads.example/ok/x.js", "http://track.example/p.gif",
		"http://cdn.example/lib.js", "http://plain.example/banner/1.png", "http://plain.example/a.css",
	} {
		req, err := NewRequest(u, "http://page.example/", filter.TypeScript)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	const rounds = 50
	run := func(v *View) []string {
		var got []string
		rv := v.WithRecorder(RecorderFunc(func(a Activation) { got = append(got, a.List+" "+a.Filter.Raw) }))
		for i := 0; i < rounds; i++ {
			for _, req := range reqs {
				rv.MatchRequest(req)
				v.MatchRequest(req)
			}
		}
		return got
	}
	want := [2][]string{run(full), run(el)}
	if len(want[0]) == 0 || len(want[1]) == 0 || strings.Join(want[0], "|") == strings.Join(want[1], "|") {
		t.Fatalf("fixture does not tell the profiles apart: full %q, easylist %q", want[0], want[1])
	}

	const workers = 8
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run([2]*View{full, el}[w%2])
		}(w)
	}
	wg.Wait()
	for w := range got {
		if g, x := strings.Join(got[w], "|"), strings.Join(want[w%2], "|"); g != x {
			t.Errorf("worker %d recorded %d activations, want %d: %q", w, len(got[w]), len(want[w%2]), got[w])
		}
	}
	if full.rec != nil || el.rec != nil {
		t.Error("WithRecorder mutated a shared view")
	}
}
