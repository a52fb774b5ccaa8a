// Package bench is the benchmark harness of the reproduction: one
// benchmark per table and figure of the paper (regenerating the artifact
// per iteration, on shared expensive fixtures), plus the ablation
// benchmarks DESIGN.md §5 calls out — keyword index vs linear scan,
// compiled patterns vs regexp, indexed vs scanned element hiding,
// instrumented vs fast matching, and snapshot diffing vs full reparse.
//
// Run with:
//
//	go test -bench=. -benchmem .
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"acceptableads/internal/alexa"
	"acceptableads/internal/decision"
	"acceptableads/internal/decision/api"
	"acceptableads/internal/easylist"
	"acceptableads/internal/engine"
	"acceptableads/internal/engine/snapbin"
	"acceptableads/internal/filter"
	"acceptableads/internal/histanalysis"
	"acceptableads/internal/histgen"
	"acceptableads/internal/htmldom"
	"acceptableads/internal/mturk"
	"acceptableads/internal/parked"
	"acceptableads/internal/sitekey"
	"acceptableads/internal/sitesurvey"
	"acceptableads/internal/vcs"
	"acceptableads/internal/webgen"
	"acceptableads/internal/xrand"
)

// ---- shared fixtures -------------------------------------------------------

var (
	fixOnce sync.Once
	fix     struct {
		history *histgen.History
		easy    *filter.List
		wl      *filter.List
		eng     *engine.Engine
		survey  *sitesurvey.Survey
		err     error
	}
)

func fixtures(b *testing.B) *struct {
	history *histgen.History
	easy    *filter.List
	wl      *filter.List
	eng     *engine.Engine
	survey  *sitesurvey.Survey
	err     error
} {
	b.Helper()
	fixOnce.Do(func() {
		fix.history, fix.err = histgen.Generate(histgen.Config{Seed: 42})
		if fix.err != nil {
			return
		}
		fix.easy = easylist.Generate(42, easylist.DefaultSize)
		fix.wl = fix.history.FinalList()
		fix.eng, fix.err = engine.New(
			engine.NamedList{Name: "easylist", List: fix.easy},
			engine.NamedList{Name: "exceptionrules", List: fix.wl},
		)
		if fix.err != nil {
			return
		}
		// A reduced survey keeps per-bench setup bounded; the full
		// 5,000+3,000 crawl runs in the sitesurvey package tests.
		fix.survey, fix.err = sitesurvey.Run(sitesurvey.Config{
			Seed:        42,
			Universe:    fix.history.Universe,
			Whitelist:   fix.wl,
			EasyList:    fix.easy,
			TopN:        1000,
			StratumSize: 200,
		})
	})
	if fix.err != nil {
		b.Fatal(fix.err)
	}
	return &fix
}

// ---- Tables ---------------------------------------------------------------

// BenchmarkTable1YearlyActivity regenerates Table 1 from the 989-revision
// repository.
func BenchmarkTable1YearlyActivity(b *testing.B) {
	f := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := histanalysis.YearlyActivity(f.history.Repo)
		if len(rows) != 5 {
			b.Fatal("bad table 1")
		}
	}
}

// BenchmarkTable2DomainPartitions regenerates Table 2 from the Rev-988
// snapshot.
func BenchmarkTable2DomainPartitions(b *testing.B) {
	f := fixtures(b)
	parts := []struct {
		Name string
		Max  int
	}{{"All", 0}, {"Top 1,000,000", 1000000}, {"Top 5,000", 5000},
		{"Top 1,000", 1000}, {"Top 500", 500}, {"Top 100", 100}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := histanalysis.DomainPartitions(f.wl, f.history, parts)
		if rows[0].Domains != histgen.FinalESLDs {
			b.Fatal("bad table 2")
		}
	}
}

// BenchmarkTable3ParkedScan runs the zone scan and live sitekey probes at
// an aggressive scale (one domain per ~20,000 of the paper's).
func BenchmarkTable3ParkedScan(b *testing.B) {
	f := fixtures(b)
	services := parked.ServicesFromHistory(f.history)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := parked.Scan(parked.ScanConfig{Seed: 42, Scale: 20000, Services: services})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 5 {
			b.Fatal("bad table 3")
		}
	}
}

// BenchmarkTable4TopFilters regenerates the most-common-filters ranking
// from the crawl results.
func BenchmarkTable4TopFilters(b *testing.B) {
	f := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top := f.survey.TopWhitelistFilters(20)
		if len(top) == 0 {
			b.Fatal("bad table 4")
		}
	}
}

// ---- Figures ---------------------------------------------------------------

// BenchmarkFig3GrowthSeries regenerates the growth curve over all 989
// revisions.
func BenchmarkFig3GrowthSeries(b *testing.B) {
	f := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := histanalysis.Growth(f.history.Repo)
		if pts[len(pts)-1].Filters != histgen.FinalFilterCount {
			b.Fatal("bad growth")
		}
	}
}

// BenchmarkFig5SitekeyExploit factors a demo-scale sitekey modulus and
// rebuilds the private key per iteration.
func BenchmarkFig5SitekeyExploit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		key, err := sitekey.GenerateKey(xrand.New(uint64(i)+1), 64)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sitekey.RecoverPrivateKey(&key.PublicKey, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6TopSites re-crawls the top sites with EasyList alone.
func BenchmarkFig6TopSites(b *testing.B) {
	f := fixtures(b)
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		rows, err := f.survey.TopSites(20)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("bad fig 6")
		}
		for _, r := range rows {
			matches += r.WLMatches + r.ELMatches + r.ELOnlyMatches
		}
	}
	b.ReportMetric(float64(matches)/b.Elapsed().Seconds(), "matches/sec")
}

// BenchmarkFig7ECDF regenerates the match-distribution ECDFs.
func BenchmarkFig7ECDF(b *testing.B) {
	f := fixtures(b)
	// The ECDFs aggregate every whitelist match the crawl recorded; the
	// per-iteration match volume is that fixed total.
	perIter := 0
	for i := range f.survey.Results {
		perIter += f.survey.Results[i].WLTotal()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		totalE, distinctE := f.survey.ECDFs()
		if totalE.N() == 0 || distinctE.N() == 0 {
			b.Fatal("bad fig 7")
		}
	}
	b.ReportMetric(float64(perIter*b.N)/b.Elapsed().Seconds(), "matches/sec")
}

// BenchmarkFig8StrataMatrix regenerates the per-stratum frequency matrix.
func BenchmarkFig8StrataMatrix(b *testing.B) {
	f := fixtures(b)
	perIter := 0
	for i := range f.survey.Results {
		perIter += f.survey.Results[i].AllTotal()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := f.survey.StrataFrequencies(50)
		if len(m.Filters) == 0 {
			b.Fatal("bad fig 8")
		}
	}
	b.ReportMetric(float64(perIter*b.N)/b.Elapsed().Seconds(), "matches/sec")
}

// BenchmarkFig9Perception runs the full 305-respondent survey simulation.
func BenchmarkFig9Perception(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := mturk.Run(uint64(i) + 1)
		if len(r.Ads) != 15 {
			b.Fatal("bad fig 9")
		}
	}
}

// BenchmarkFig11AFilterDetection detects the undocumented groups in the
// final snapshot and scans the full history timeline.
func BenchmarkFig11AFilterDetection(b *testing.B) {
	f := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := histanalysis.DetectAFilters(f.wl)
		if len(groups) != histgen.AFilterGroups-histgen.AFilterRemoved {
			b.Fatal("bad fig 11")
		}
	}
}

// BenchmarkHygieneLint runs the §8 audit.
func BenchmarkHygieneLint(b *testing.B) {
	f := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := histanalysis.Lint(f.wl)
		if rep.DuplicateLines != histgen.DuplicateFilters {
			b.Fatal("bad lint")
		}
	}
}

// ---- engine micro-benchmarks and ablations ---------------------------------

// benchRequests is a mixed workload over the ~31k-filter engine.
func benchRequests() []*engine.Request {
	return []*engine.Request{
		{URL: "http://stats.g.doubleclick.net/r/collect", Type: filter.TypeImage, DocumentHost: "toyota.com"},
		{URL: "http://static.adzerk.net/reddit/ads.html", Type: filter.TypeSubdocument, DocumentHost: "reddit.com"},
		{URL: "http://fonts.gstatic.com/s/font.woff", Type: filter.TypeOther, DocumentHost: "nytimes.com"},
		{URL: "http://cdn.unrelated.example/app.js", Type: filter.TypeScript, DocumentHost: "example.com"},
		{URL: "http://www.googleadservices.com/pagead/conversion.js", Type: filter.TypeScript, DocumentHost: "walmart.com"},
		{URL: "http://images.example.org/photos/cat.jpg", Type: filter.TypeImage, DocumentHost: "example.org"},
		{URL: "http://serve.popads.net/cpop.js", Type: filter.TypeScript, DocumentHost: "games77.com"},
		{URL: "http://self.example.net/style.css", Type: filter.TypeStylesheet, DocumentHost: "self.example.net"},
	}
}

// prepareAll runs every request through one warm-up match, which derives
// its index side, so benchmark iterations measure matching, not the
// one-time derivation.
// It ends with an explicit collection: setup (engine build, fixture
// generation on the first benchmark of the process) leaves a heap full
// of pending garbage, and without the GC the first benchmark measured
// absorbs that collection into its iterations — which once made
// DomainTrieOn read ~15% slower than Off purely from declaration order.
func prepareAll(eng *engine.Engine, reqs []*engine.Request) {
	for _, r := range reqs {
		eng.MatchRequest(r, engine.WithShortCircuit())
	}
	runtime.GC()
}

// BenchmarkEngineMatchRequest is the hot path: one decision against the
// full EasyList+whitelist rule set, keyword-indexed, instrumented mode.
func BenchmarkEngineMatchRequest(b *testing.B) {
	f := fixtures(b)
	reqs := benchRequests()
	prepareAll(f.eng, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.eng.MatchRequest(reqs[i%len(reqs)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "matches/sec")
}

// BenchmarkEngineMatchRequestShortCircuit is the production serving path:
// short-circuit evaluation on prepared requests — the configuration the
// zero-allocation guarantee covers (see TestMatchRequestZeroAlloc).
func BenchmarkEngineMatchRequestShortCircuit(b *testing.B) {
	f := fixtures(b)
	reqs := benchRequests()
	prepareAll(f.eng, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.eng.MatchRequest(reqs[i%len(reqs)], engine.WithShortCircuit())
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "matches/sec")
}

// BenchmarkProfileViewOn/Off quantify the cost of profile gating: On
// matches through a View spanning every list (the mask AND runs per
// candidate), Off is the flat engine on the same prepared requests. The
// candidate sets are identical, so the delta is purely the per-candidate
// membership gate — the acceptance bound is <5%.
func BenchmarkProfileViewOn(b *testing.B) {
	f := fixtures(b)
	view, err := f.eng.View(engine.DefaultProfile)
	if err != nil {
		b.Fatal(err)
	}
	reqs := benchRequests()
	prepareAll(f.eng, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.MatchRequest(reqs[i%len(reqs)], engine.WithShortCircuit())
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "matches/sec")
}

func BenchmarkProfileViewOff(b *testing.B) {
	BenchmarkEngineMatchRequestShortCircuit(b)
}

// BenchmarkProfileDiff is the differential evaluation: one request, two
// profiles, one pass over the shared index.
func BenchmarkProfileDiff(b *testing.B) {
	f := fixtures(b)
	view, err := f.eng.View(engine.DefaultProfile)
	if err != nil {
		b.Fatal(err)
	}
	reqs := benchRequests()
	prepareAll(f.eng, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.eng.Diff(reqs[i%len(reqs)], view, view)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "diffs/sec")
}

// BenchmarkAblationKeywordIndexOn/Off quantify what the keyword index buys
// over scanning all ~31k filters per request.
func BenchmarkAblationKeywordIndexOn(b *testing.B) {
	f := fixtures(b)
	reqs := benchRequests()
	prepareAll(f.eng, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.eng.MatchRequest(reqs[i%len(reqs)])
	}
}

func BenchmarkAblationKeywordIndexOff(b *testing.B) {
	f := fixtures(b)
	reqs := benchRequests()
	prepareAll(f.eng, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.eng.MatchRequest(reqs[i%len(reqs)], engine.WithLinearScan())
	}
}

// BenchmarkAblationUnifiedIndexOn/Off isolate the unified hash-keyed index
// in production (short-circuit) mode: On probes the keyword buckets, Off
// scans every filter in the same evaluation order. The delta is what the
// single-probe-pass index buys the serving path.
func BenchmarkAblationUnifiedIndexOn(b *testing.B) {
	BenchmarkEngineMatchRequestShortCircuit(b)
}

func BenchmarkAblationUnifiedIndexOff(b *testing.B) {
	f := fixtures(b)
	reqs := benchRequests()
	prepareAll(f.eng, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.eng.MatchRequest(reqs[i%len(reqs)], engine.WithShortCircuit(), engine.WithLinearScan())
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "matches/sec")
}

// BenchmarkAblationInstrumentationOn/Off compare the survey's
// record-everything matching with the production short-circuit.
func BenchmarkAblationInstrumentationOn(b *testing.B) {
	BenchmarkAblationKeywordIndexOn(b)
}

func BenchmarkAblationInstrumentationOff(b *testing.B) {
	f := fixtures(b)
	reqs := benchRequests()
	prepareAll(f.eng, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.eng.MatchRequest(reqs[i%len(reqs)], engine.WithShortCircuit())
	}
}

// benchAblationEngine builds an engine over the shared fixture lists with
// an ablation switch applied before the Add calls.
func benchAblationEngine(b *testing.B, conf func(*engine.Builder)) *engine.Engine {
	b.Helper()
	f := fixtures(b)
	bld := engine.NewBuilder()
	if conf != nil {
		conf(bld)
	}
	if err := bld.Add("easylist", f.easy); err != nil {
		b.Fatal(err)
	}
	if err := bld.Add("exceptionrules", f.wl); err != nil {
		b.Fatal(err)
	}
	return bld.Build()
}

// benchShortCircuit runs the production-order workload against eng.
func benchShortCircuit(b *testing.B, eng *engine.Engine) {
	reqs := benchRequests()
	prepareAll(eng, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.MatchRequest(reqs[i%len(reqs)], engine.WithShortCircuit())
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "matches/sec")
}

// BenchmarkAblationFingerprintOn/Off isolate the packed pattern
// fingerprints: Off builds the same engine with the fingerprint gate left
// permanently open, so every candidate that passes the type/party/domain
// gates runs its full pattern match. The delta is what the two bloom-bit
// probes per candidate buy.
func BenchmarkAblationFingerprintOn(b *testing.B) {
	benchShortCircuit(b, benchAblationEngine(b, nil))
}

func BenchmarkAblationFingerprintOff(b *testing.B) {
	benchShortCircuit(b, benchAblationEngine(b, func(bld *engine.Builder) {
		bld.DisableFingerprints()
	}))
}

// BenchmarkAblationDomainTrieOn/Off isolate the reversed-domain host
// index: Off keeps '||host^' filters in the keyword buckets, so every
// request whose URL contains a filter's host keyword walks that bucket
// instead of one exact host-key lookup.
func BenchmarkAblationDomainTrieOn(b *testing.B) {
	benchShortCircuit(b, benchAblationEngine(b, nil))
}

func BenchmarkAblationDomainTrieOff(b *testing.B) {
	benchShortCircuit(b, benchAblationEngine(b, func(bld *engine.Builder) {
		bld.DisableHostIndex()
	}))
}

// BenchmarkEngineBuildSerial/Parallel measure compiling and indexing the
// full EasyList+whitelist fixture into an engine — the reload cost behind
// every aa-serve snapshot swap. Serial pins one compile worker; Parallel
// uses GOMAXPROCS.
func BenchmarkEngineBuildSerial(b *testing.B) {
	benchEngineBuild(b, 1)
}

func BenchmarkEngineBuildParallel(b *testing.B) {
	benchEngineBuild(b, 0)
}

func benchEngineBuild(b *testing.B, workers int) {
	f := fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := engine.NewBuilder().SetWorkers(workers)
		if err := bld.Add("easylist", f.easy); err != nil {
			b.Fatal(err)
		}
		if err := bld.Add("exceptionrules", f.wl); err != nil {
			b.Fatal(err)
		}
		if eng := bld.Build(); eng.NumFilters() == 0 {
			b.Fatal("empty engine")
		}
	}
}

// ---- binary snapshot codec: decode vs recompile -----------------------------

var (
	snapOnce sync.Once
	snapBlob []byte
	snapEasy string
	snapWl   string
	snapErr  error
)

// benchSnapshot encodes the shared fixture engine once and captures the
// raw list text — the two inputs the warm-start paths choose between.
func benchSnapshot(b *testing.B) {
	b.Helper()
	f := fixtures(b)
	snapOnce.Do(func() {
		snapBlob, snapErr = snapbin.Encode(f.eng)
		snapEasy = f.easy.String()
		snapWl = f.wl.String()
	})
	if snapErr != nil {
		b.Fatal(snapErr)
	}
}

// BenchmarkSnapshotEncode serializes the compiled ~31k-filter engine into
// the versioned, checksummed snapbin frame — the persist-side cost paid
// once per reload.
func BenchmarkSnapshotEncode(b *testing.B) {
	f := fixtures(b)
	benchSnapshot(b)
	b.SetBytes(int64(len(snapBlob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapbin.Encode(f.eng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotDecode is the binary warm-start path: checksum, bulk
// slab reads, index freeze — no list parsing, no pattern compilation
// except genuine regexes. The acceptance bound is ≥10× faster than
// BenchmarkSnapshotRebuild.
func BenchmarkSnapshotDecode(b *testing.B) {
	benchSnapshot(b)
	b.SetBytes(int64(len(snapBlob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := snapbin.Decode(snapBlob)
		if err != nil {
			b.Fatal(err)
		}
		if eng.NumFilters() == 0 {
			b.Fatal("empty engine")
		}
	}
}

// BenchmarkSnapshotRebuild is the fallback path the decode replaces:
// reparse the persisted raw list text and recompile the engine from
// scratch.
func BenchmarkSnapshotRebuild(b *testing.B) {
	benchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := engine.NewBuilder()
		if err := bld.Add("easylist", filter.ParseListString("easylist", snapEasy)); err != nil {
			b.Fatal(err)
		}
		if err := bld.Add("exceptionrules", filter.ParseListString("exceptionrules", snapWl)); err != nil {
			b.Fatal(err)
		}
		if bld.Build().NumFilters() == 0 {
			b.Fatal("empty engine")
		}
	}
}

// Pattern-vs-regexp ablation: the custom segment matcher against a
// regexp-translated filter corpus.

var patternCorpus = []string{
	"||adzerk.net^$third-party",
	"||stats.g.doubleclick.net^",
	"||google.com/ads/search/module/ads/*/search.js",
	"/ad-frame/",
	"|http://exact.example/ad.jpg|",
	"||example.com/ad.jpg|",
}

var patternURLs = []string{
	"http://static.adzerk.net/reddit/ads.html",
	"http://stats.g.doubleclick.net/r/collect",
	"http://google.com/ads/search/module/ads/v3/search.js",
	"http://x.example/a/ad-frame/1.gif",
	"http://exact.example/ad.jpg",
	"http://good.example.com/ad.jpg",
	"http://nothing.example/index.html",
}

// regexpTranslate converts an Adblock pattern to the regexp Adblock Plus
// itself would fall back to — the ablation baseline.
func regexpTranslate(line string) *regexp.Regexp {
	f := filter.Parse(line)
	expr := regexp.QuoteMeta(f.Pattern)
	expr = strings.ReplaceAll(expr, `\*`, ".*")
	expr = strings.ReplaceAll(expr, `\^`, `(?:[^a-zA-Z0-9_\-.%]|$)`)
	switch {
	case f.AnchorDomain:
		expr = `^[a-z-]+://([^/?#]*\.)?` + expr
	case f.AnchorStart:
		expr = "^" + expr
	}
	if f.AnchorEnd {
		expr += "$"
	}
	return regexp.MustCompile("(?i)" + expr)
}

func BenchmarkAblationPatternCompiled(b *testing.B) {
	eng, err := engine.New(engine.NamedList{Name: "l",
		List: filter.ParseListString("l", strings.Join(patternCorpus, "\n"))})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := patternURLs[i%len(patternURLs)]
		eng.MatchRequest(&engine.Request{URL: url, Type: filter.TypeImage, DocumentHost: "x.com"}, engine.WithLinearScan())
	}
}

func BenchmarkAblationPatternRegexp(b *testing.B) {
	res := make([]*regexp.Regexp, len(patternCorpus))
	for i, line := range patternCorpus {
		res[i] = regexpTranslate(line)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := patternURLs[i%len(patternURLs)]
		for _, re := range res {
			if re.MatchString(url) {
				break
			}
		}
	}
}

// Element-hiding ablation: id/class candidate index vs evaluating every
// hiding selector against the document.
func benchDoc(b *testing.B) *htmldom.Node {
	b.Helper()
	u := alexa.NewUniverse(42, 1000000)
	c := webgen.New(42, u, nil)
	return htmldom.Parse(c.Page("shop1234.com", webgen.PageOptions{}))
}

func BenchmarkAblationElemhideIndexOn(b *testing.B) {
	f := fixtures(b)
	doc := benchDoc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.eng.HideElements(doc, "http://shop1234.com/", "shop1234.com")
	}
}

func BenchmarkAblationElemhideIndexOff(b *testing.B) {
	f := fixtures(b)
	doc := benchDoc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.eng.HideElements(doc, "http://shop1234.com/", "shop1234.com", engine.WithLinearScan())
	}
}

// History ablation: multiset snapshot diffing vs fully parsing both
// snapshots to compare filter sets.
func BenchmarkAblationHistoryDiff(b *testing.B) {
	f := fixtures(b)
	old := f.history.Repo.Rev(500).Content
	new_ := f.history.Repo.Rev(501).Content
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vcs.DiffContents(old, new_)
	}
}

func BenchmarkAblationHistoryReparse(b *testing.B) {
	f := fixtures(b)
	old := f.history.Repo.Rev(500).Content
	new_ := f.history.Repo.Rev(501).Content
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := filter.ParseListString("a", old)
		bb := filter.ParseListString("b", new_)
		if len(a.Entries) == 0 || len(bb.Entries) == 0 {
			b.Fatal("parse failed")
		}
	}
}

// ---- substrate micro-benchmarks ---------------------------------------------

// BenchmarkFilterParse parses a representative whitelist line.
func BenchmarkFilterParse(b *testing.B) {
	const line = "@@||adzerk.net/reddit/$subdocument,document,domain=reddit.com"
	for i := 0; i < b.N; i++ {
		if f := filter.Parse(line); f.Kind != filter.KindRequestException {
			b.Fatal("bad parse")
		}
	}
}

// BenchmarkWhitelistParse parses the full Rev-988 snapshot.
func BenchmarkWhitelistParse(b *testing.B) {
	f := fixtures(b)
	content := f.history.Repo.Tip().Content
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := filter.ParseListString("wl", content)
		if len(l.Active()) == 0 {
			b.Fatal("bad list")
		}
	}
}

// BenchmarkHTMLParse parses a generated landing page.
func BenchmarkHTMLParse(b *testing.B) {
	u := alexa.NewUniverse(42, 1000000)
	c := webgen.New(42, u, nil)
	page := c.Page("news77.com", webgen.PageOptions{})
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		htmldom.Parse(page)
	}
}

// BenchmarkHistoryGenerate synthesizes the full 989-revision repository.
func BenchmarkHistoryGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := histgen.Generate(histgen.Config{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSitekeySignVerify measures one sign+verify round with a 512-bit
// key.
func BenchmarkSitekeySignVerify(b *testing.B) {
	key, err := sitekey.GenerateKey(xrand.New(9), 512)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig, err := key.Sign("/x", "a.com", "ua")
		if err != nil {
			b.Fatal(err)
		}
		if err := sitekey.Verify(&key.PublicKey, sig, "/x", "a.com", "ua"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurveyVisit crawls one landing page end to end (HTTP fetch,
// DOM parse, full engine evaluation).
func BenchmarkSurveyVisit(b *testing.B) {
	f := fixtures(b)
	// Reuse the survey's infrastructure through a fresh small run per
	// bench process; visiting through the public API means standing up a
	// tiny survey.
	s, err := sitesurvey.Run(sitesurvey.Config{
		Seed: 43, Universe: f.history.Universe,
		Whitelist: f.wl, EasyList: f.easy,
		TopN: 1, StratumSize: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopSites(1); err != nil {
			b.Fatal(err)
		}
	}
}

// Literal-regex ablation: slash-delimited filters without metacharacters
// compiled as substring patterns vs regexp machines.
func BenchmarkAblationLiteralRegexOn(b *testing.B) {
	eng, err := engine.New(engine.NamedList{Name: "l",
		List: filter.ParseListString("l", "/ad-frame/\n/sponsor-box/\n/promo-unit/")})
	if err != nil {
		b.Fatal(err)
	}
	req := &engine.Request{URL: "http://x.example/content/article-17/page.html",
		Type: filter.TypeImage, DocumentHost: "x.com"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.MatchRequest(req, engine.WithLinearScan())
	}
}

func BenchmarkAblationLiteralRegexOff(b *testing.B) {
	// Force the regexp path with one genuine metacharacter per filter.
	eng, err := engine.New(engine.NamedList{Name: "l",
		List: filter.ParseListString("l", "/ad-frame./\n/sponsor-box./\n/promo-unit./")})
	if err != nil {
		b.Fatal(err)
	}
	req := &engine.Request{URL: "http://x.example/content/article-17/page.html",
		Type: filter.TypeImage, DocumentHost: "x.com"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.MatchRequest(req, engine.WithLinearScan())
	}
}

// ---- decision service: cached vs uncached, 1 vs NumCPU goroutines ----------

// benchDecisionService stands up a decision service over the shared
// EasyList+whitelist fixtures, with or without the sharded decision cache.
func benchDecisionService(b *testing.B, cacheSize int) *decision.Service {
	b.Helper()
	f := fixtures(b)
	svc, err := decision.New(context.Background(), decision.Config{
		Source: decision.Lists(
			engine.NamedList{Name: "easylist", List: f.easy},
			engine.NamedList{Name: "exceptionrules", List: f.wl},
		),
		CacheSize: cacheSize,
	})
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

// benchPreparedRequests is benchRequests run through the validating
// constructor, as the serving layer receives them.
func benchPreparedRequests(b *testing.B) []*engine.Request {
	b.Helper()
	raw := benchRequests()
	out := make([]*engine.Request, len(raw))
	for i, r := range raw {
		req, err := engine.NewRequest(r.URL, r.DocumentHost, r.Type)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = req
	}
	return out
}

// BenchmarkDecisionCacheOff/On measure the decision cache on a skewed
// workload (eight hot requests, as a page re-requests the same assets):
// every hit skips the keyword-index walk entirely.
func BenchmarkDecisionCacheOff(b *testing.B) {
	svc := benchDecisionService(b, 0)
	reqs := benchPreparedRequests(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.MatchProfile(reqs[i%len(reqs)], "")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "matches/sec")
}

func BenchmarkDecisionCacheOn(b *testing.B) {
	svc := benchDecisionService(b, 1<<16)
	reqs := benchPreparedRequests(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.MatchProfile(reqs[i%len(reqs)], "")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "matches/sec")
}

// The parallel variants run GOMAXPROCS (NumCPU) matcher goroutines: the
// immutable snapshot needs no reader locks and the sharded cache keeps
// contention off a single mutex, so throughput should scale.
func BenchmarkDecisionCacheOffParallel(b *testing.B) {
	svc := benchDecisionService(b, 0)
	reqs := benchPreparedRequests(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			svc.MatchProfile(reqs[i%len(reqs)], "")
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "matches/sec")
}

func BenchmarkDecisionCacheOnParallel(b *testing.B) {
	svc := benchDecisionService(b, 1<<16)
	reqs := benchPreparedRequests(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			svc.MatchProfile(reqs[i%len(reqs)], "")
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "matches/sec")
}

// ---- serve layers: request preparation and the resident-batch hit path -----

// corpusBatch renders a page visit the way the service benchmark's crawl
// corpus does: n sub-resource tuples of one document, first-party and CDN
// hosts, lower-case URLs of 60–200 characters with versioned paths,
// content hashes and hex-laden query strings — the shape whose preparation
// cost the hand-picked benchRequests (short URLs) understate.
func corpusBatch(n int) api.BatchRequest {
	rng := xrand.New(2015)
	hosts := []string{
		"www.dailyplanet-news.com", "static.dailyplanet-news.com", "img.dailyplanet-news.com",
		"static.cloudedge.io", "images.photocache.net", "cdn.jsmirror.net", "fonts.typeface-cdn.com",
	}
	dirs := []string{"static/js", "static/css", "images/2015/04", "wp-content/uploads/2015/04", "resources/v3", "public/cache"}
	names := []string{"main", "vendor", "bundle", "jquery.min", "bootstrap.min", "carousel", "lazyload", "sprite"}
	exts := []struct{ ext, typ string }{{".js", "script"}, {".css", "stylesheet"}, {".jpg", "image"}, {".png", "image"}, {".woff", "other"}}
	hex := func(b *strings.Builder, n int) {
		for i := 0; i < n; i++ {
			b.WriteByte("0123456789abcdef"[rng.Intn(16)])
		}
	}
	q := api.BatchRequest{Requests: make([]api.MatchRequest, n)}
	for i := range q.Requests {
		var b strings.Builder
		e := exts[rng.Intn(len(exts))]
		fmt.Fprintf(&b, "https://%s/%s/v%d.%d.%d/%s-", hosts[rng.Intn(len(hosts))], dirs[rng.Intn(len(dirs))],
			1+rng.Intn(12), rng.Intn(20), rng.Intn(10), names[rng.Intn(len(names))])
		hex(&b, 8+4*rng.Intn(3))
		fmt.Fprintf(&b, "%s?v=201504%02d", e.ext, 1+rng.Intn(28))
		if rng.Intn(3) == 0 {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				fmt.Fprintf(&b, "&%s=", names[rng.Intn(len(names))])
				hex(&b, 12+rng.Intn(12))
			}
		}
		q.Requests[i] = api.MatchRequest{URL: b.String(), Document: "https://www.dailyplanet-news.com/", Type: e.typ}
	}
	return q
}

// Typed sinks: storing into an interface would box (and allocate).
var (
	benchSinkReq   *engine.Request
	benchSinkLower string
)

// BenchmarkNewRequest is the key side alone: validation, document host
// and the third-party bit — all a request that hits the decision cache
// ever pays.
func BenchmarkNewRequest(b *testing.B) {
	q := corpusBatch(64).Requests
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &q[i%len(q)]
		req, err := engine.NewRequest(t.URL, t.Document, filter.TypeScript)
		if err != nil {
			b.Fatal(err)
		}
		benchSinkReq = req
	}
}

// BenchmarkRequestIndexSide is the derivation the first evaluation of a
// request adds on top of NewRequest: lowered URL, keyword hashes, '||'
// boundaries, host keys and the 4-gram bloom, in one allocation. Each
// iteration re-points one request at the next corpus URL, which
// invalidates what was derived for the previous one, so the loop times a
// fresh derivation (third-party bit included) without a constructor call.
func BenchmarkRequestIndexSide(b *testing.B) {
	q := corpusBatch(64).Requests
	req, err := engine.NewRequest(q[0].URL, q[0].Document, filter.TypeScript)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.URL = q[i%len(q)].URL
		benchSinkLower = req.LowerURL()
	}
}

// BenchmarkServeBatchHit is the first slice of the serve-layer benchmark:
// Handler.ServeHTTP end to end on one resident 64-tuple batch — JSON
// decode, 64 request preparations, 64 cache hits, JSON encode — with no
// socket in the way. It is page_hot's handler cost per call.
func BenchmarkServeBatchHit(b *testing.B) {
	svc := benchDecisionService(b, 1<<16)
	h := decision.Handler(svc, decision.HandlerConfig{})
	q := corpusBatch(64)
	body, err := json.Marshal(q)
	if err != nil {
		b.Fatal(err)
	}
	serve := func() *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		req, err := http.NewRequest(http.MethodPost, "/v1/match-batch", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		h.ServeHTTP(rr, req)
		return rr
	}
	serve() // fills the cache
	var out api.BatchResponse
	if rr := serve(); rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &out) != nil || out.Cached != len(q.Requests) {
		b.Fatalf("warm batch: status %d, %d of %d cached", rr.Code, out.Cached, len(q.Requests))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(q.Requests)), "ns/decision")
}
