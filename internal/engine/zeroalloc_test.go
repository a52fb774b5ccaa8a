package engine

import (
	"strings"
	"testing"

	"acceptableads/internal/filter"
	"acceptableads/internal/xrand"
)

// TestMatchRequestZeroAlloc pins the tentpole property of the match core:
// a short-circuit decision on a prepared request performs zero heap
// allocations — the keyword hashes, domain boundaries, lowered URL and
// third-party bit all come from the request memos, the unified index is
// probed without materializing keyword substrings, and the Decision embeds
// its matches by value.
func TestMatchRequestZeroAlloc(t *testing.T) {
	e := mustEngine(t,
		// doubleclick.net appears hostIndexMinBucket times so the fixture
		// exercises the reversed-domain index (sparse host keys spill to
		// the keyword buckets); '||doubleclick.net^' stays first so the
		// winning identity is the minimum-insertion-id filter.
		listOf("easylist", strings.Join([]string{
			"||adzerk.net^$third-party",
			"||doubleclick.net^",
			"||doubleclick.net/pixel/",
			"||doubleclick.net^$script",
			"||doubleclick.net^$third-party,image",
			"/ad-frame/",
			"||ads.example^$script",
			"|http://exact.example/ad.jpg|",
			"/banner/*/img^$image",
		}, "\n")),
		listOf("exceptionrules", strings.Join([]string{
			"@@||adzerk.net/reddit/$subdocument,document,domain=reddit.com",
			"@@||gstatic.com^$third-party",
		}, "\n")),
	)
	urls := []struct {
		url, doc string
		typ      filter.ContentType
	}{
		// blocked via the reversed-domain host index ('||doubleclick.net^'
		// is trie-keyed; exercises the hostKeys memo and the trie probe)
		{"http://stats.g.doubleclick.net/r/collect", "http://toyota.com/", filter.TypeImage},
		// allowed via an exception (its sparse host key rides a keyword
		// bucket)
		{"http://static.adzerk.net/reddit/ads.html", "http://www.reddit.com/", filter.TypeSubdocument},
		// no match at all
		{"http://plain.example/index.css", "http://plain.example/", filter.TypeStylesheet},
		// slow-bucket (keyword-less literal-regex) match
		{"http://x.example/ad-frame/1.gif", "http://x.com/", filter.TypeImage},
		// host-index probe with many suffix keys and a userinfo '@'
		{"http://deep.sub.doubleclick.net@evil.example/x", "http://toyota.com/", filter.TypeImage},
	}
	var reqs []*Request
	for _, u := range urls {
		req, err := NewRequest(u.url, u.doc, u.typ)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	// The property below must cover the host-index path, not vacuously
	// pass because everything stayed in the keyword buckets.
	if len(e.index.byHost) == 0 {
		t.Fatal("fixture engine filed nothing in the host index")
	}
	var tr Trail
	e.MatchRequest(reqs[0], WithExplain(&tr))
	if tr.HostBucketsProbed == 0 {
		t.Fatalf("doubleclick request did not probe the host index: %+v", tr)
	}
	sess := e.views[DefaultProfile]
	allocs := testing.AllocsPerRun(200, func() {
		for _, req := range reqs {
			sess.MatchRequest(req, WithShortCircuit())
		}
	})
	if allocs != 0 {
		t.Errorf("short-circuit MatchRequest allocated %.1f times per run over %d requests, want 0", allocs, len(reqs))
	}

	// Attribution counters are always on: the runs above must have
	// recorded per-filter hits without costing a single allocation.
	var hits int64
	for _, st := range e.FilterStats() {
		hits += st.Hits
	}
	if hits == 0 {
		t.Error("attribution counters recorded no hits after matched requests")
	}

	// The same holds for the instrumented (full-scan) mode with explain
	// off: the nil-trail branch must not allocate either.
	allocs = testing.AllocsPerRun(200, func() {
		for _, req := range reqs {
			sess.MatchRequest(req)
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented MatchRequest allocated %.1f times per run over %d requests, want 0", allocs, len(reqs))
	}

	// Profile views must not cost the property either: the mask gate is
	// one AND per candidate, and a recording copy of the view adds no
	// per-call state. Checked on a strict-subset profile, where the gate
	// actually skips candidates.
	if err := e.addProfile("easylist", "easylist"); err != nil {
		t.Fatal(err)
	}
	view, err := e.View("easylist")
	if err != nil {
		t.Fatal(err)
	}
	vsess := view.WithRecorder(nil)
	allocs = testing.AllocsPerRun(200, func() {
		for _, req := range reqs {
			vsess.MatchRequest(req, WithShortCircuit())
		}
	})
	if allocs != 0 {
		t.Errorf("view short-circuit MatchRequest allocated %.1f times per run over %d requests, want 0", allocs, len(reqs))
	}
	allocs = testing.AllocsPerRun(200, func() {
		for _, req := range reqs {
			view.MatchRequest(req, WithShortCircuit())
		}
	})
	if allocs != 0 {
		t.Errorf("View.MatchRequest allocated %.1f times per run over %d requests, want 0", allocs, len(reqs))
	}
}

// TestBuilderParallelDeterminism: the engine built with parallel filter
// compilation must be indistinguishable from the serially built one —
// same filter counts, same verdicts, same reported filters.
func TestBuilderParallelDeterminism(t *testing.T) {
	rng := xrand.New(4242)
	var lines []string
	for i := 0; i < 3000; i++ {
		line := genExoticLine(rng)
		if rng.Intn(4) == 0 {
			line = "@@" + line
		}
		lines = append(lines, line)
	}
	list := filter.ParseListString("l", strings.Join(lines, "\n"))

	build := func(workers int) *Engine {
		b := NewBuilder().SetWorkers(workers)
		if err := b.Add("l", list); err != nil {
			t.Fatal(err)
		}
		return b.Build()
	}
	serial := build(1)
	parallel := build(8)

	if s, p := serial.NumFilters(), parallel.NumFilters(); s != p {
		t.Fatalf("NumFilters: serial %d != parallel %d", s, p)
	}
	if s, p := serial.ListFilters("l"), parallel.ListFilters("l"); s != p {
		t.Fatalf("ListFilters: serial %d != parallel %d", s, p)
	}
	for j := 0; j < 2000; j++ {
		url := genExoticURL(rng)
		req := &Request{URL: url, Type: filter.TypeScript, DocumentHost: "first-party.example"}
		ds := serial.MatchRequest(req)
		dp := parallel.MatchRequest(req)
		if ds.Verdict != dp.Verdict || ds.DoNotTrack != dp.DoNotTrack {
			t.Fatalf("divergence on %q: serial %v/%v parallel %v/%v",
				url, ds.Verdict, ds.DoNotTrack, dp.Verdict, dp.DoNotTrack)
		}
		sb, pb := ds.BlockedBy(), dp.BlockedBy()
		if (sb == nil) != (pb == nil) || (sb != nil && sb.Filter.Raw != pb.Filter.Raw) {
			t.Fatalf("blocked-by divergence on %q: serial %+v parallel %+v", url, sb, pb)
		}
	}
}

// TestBuilderParallelRejectsBadFilter: compile errors surface identically
// (first bad filter in list order) regardless of worker count.
func TestBuilderParallelRejectsBadFilter(t *testing.T) {
	var lines []string
	for i := 0; i < parallelThreshold; i++ {
		lines = append(lines, genPattern(xrand.New(uint64(i))))
	}
	lines = append(lines, "/unclosed[/")
	list := filter.ParseListString("l", strings.Join(lines, "\n"))
	for _, workers := range []int{1, 8} {
		b := NewBuilder().SetWorkers(workers)
		if err := b.Add("l", list); err == nil {
			t.Errorf("workers=%d: bad regex accepted", workers)
		}
	}
}
