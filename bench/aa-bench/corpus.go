package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"acceptableads/internal/decision/api"
	"acceptableads/internal/webgen"
	"acceptableads/internal/xrand"
)

// Workload names. Later issues cite them, so they are fixed.
const (
	wlPageCold    = "page_cold"
	wlPageHot     = "page_hot"
	wlSingleZipf  = "single_zipf"
	wlReloadChurn = "reload_churn"
)

var workloadNames = []string{wlPageCold, wlPageHot, wlSingleZipf, wlReloadChurn}

// profileEasy is the one non-default profile aa-serve's default flags
// declare ("easylist=easylist").
const profileEasy = "easylist"

// Shape of the traffic. benignPerPage sub-resources plus the page's ad
// embeds make a visit of about 64 requests, of which the embeds are the
// only ones any filter matches.
const (
	benignPerPage = 58
	coldRanks     = 1 << 16 // page_cold draws visits from this many Alexa ranks
	hotPages      = 512     // page_hot's resident working set, in pages
	zipfTuples    = 1 << 18 // single_zipf's tuple universe: 4x the default cache
	preloadTuples = 1 << 16 // single_zipf pre-loads this many: the cache capacity
	easyEvery     = 4       // every 4th single call runs under profileEasy
	sampleTuples  = 1024    // distinct tuples the oracle checks, at least
	sampleEmbeds  = 64      // of which embeds, at least: they carry the hits
)

// class says how a tuple was generated; the oracle sample must cover all.
type class uint8

const (
	classFirstParty class = iota
	classCDN
	classEmbed
	numClasses
)

// tuple is one sub-resource request as it goes on the wire.
type tuple struct {
	url, doc, typ string
	class         class
}

func (t tuple) wire() api.MatchRequest {
	return api.MatchRequest{URL: t.url, Document: t.doc, Type: t.typ}
}

// Benign third-party hosts: script, font and image CDNs no filter names —
// except churnBlockedHost under variant B.
var cdnHosts = []string{
	churnBlockedHost, "ajax.libhost.org", "fonts.typeface-cdn.com",
	"images.photocache.net", "static.cloudedge.io", "cdn.jsmirror.net",
	"media.vidstream-cdn.com", "assets.webkit-static.com", "s3.objectstore.io",
	"api.mapstiles.org", "cdn.fontlibrary.net", "widgets.sharebar.io",
	"player.embedvideo.net", "static.commentbox.io", "cdn.polyfill-host.org",
	"img.thumbnailer.net",
}

var firstPartySubs = []string{"www", "static", "img", "assets", "media", "api"}

var pathDirs = []string{
	"assets", "static/js", "static/css", "img", "images/2015/04", "media",
	"dist", "build", "wp-content/uploads/2015/04", "themes/default",
	"content/files", "lib", "vendor", "resources/v3", "public/cache",
}

var pathNames = []string{
	"main", "app", "vendor", "bundle", "style", "theme", "logo", "hero",
	"sprite", "icons", "header", "footer", "jquery.min", "bootstrap.min",
	"carousel", "gallery", "thumb", "avatar", "feed", "comments", "search",
	"menu", "fonts", "polyfill", "runtime", "chunk", "lazyload", "modal",
}

// benignType is a content type with its share of a page's benign
// requests and the file extensions it is served as.
var benignTypes = []struct {
	typ    string
	weight float64
	exts   []string
}{
	{"image", 40, []string{".jpg", ".png", ".gif", ".webp"}},
	{"script", 25, []string{".js"}},
	{"stylesheet", 10, []string{".css"}},
	{"xmlhttprequest", 15, nil},
	{"other", 10, []string{".woff", ".json", ".ico", ".mp4"}},
}

// page is one landing page: its document URL and the requests a visit
// issues, benign ones first, then the ad embeds.
type page struct {
	tuples []tuple
}

// corpus generates pages: the host and its ad embeds come from the fixed
// web, the benign sub-resource URLs from seed.
type corpus struct {
	fix  *fixture
	seed uint64

	mu    sync.Mutex
	pages map[int]*page // by rank; page_cold reaches a few thousand
}

func newCorpus(fix *fixture, seed uint64) *corpus {
	return &corpus{fix: fix, seed: seed, pages: make(map[int]*page)}
}

// page returns the landing page of the site at the 1-based Alexa rank.
func (c *corpus) page(rank int) *page {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.pages[rank]; ok {
		return p
	}
	p := c.generate(rank)
	c.pages[rank] = p
	return p
}

func (c *corpus) generate(rank int) *page {
	host := c.fix.universe.Domain(rank).Name
	doc := "https://www." + host + "/"
	rng := xrand.New(xrand.Hash64(c.seed, host))
	weights := make([]float64, len(benignTypes))
	for i, bt := range benignTypes {
		weights[i] = bt.weight
	}
	p := &page{tuples: make([]tuple, 0, benignPerPage+8)}
	for i := 0; i < benignPerPage; i++ {
		bt := benignTypes[xrand.PickWeighted(rng.Float64(), weights)]
		t := tuple{doc: doc, typ: bt.typ, class: classFirstParty}
		reqHost := firstPartySubs[rng.Intn(len(firstPartySubs))] + "." + host
		if rng.Intn(5) < 2 {
			t.class = classCDN
			reqHost = cdnHosts[rng.Intn(len(cdnHosts))]
		}
		t.url = benignURL(rng, reqHost, bt.typ, bt.exts)
		p.tuples = append(p.tuples, t)
	}
	for _, e := range c.fix.web.Embeds(host, webgen.PageOptions{}) {
		t := tuple{url: e.URL, doc: doc, typ: e.Type.String(), class: classEmbed}
		for r := 0; r < e.Repeats; r++ {
			p.tuples = append(p.tuples, t)
		}
	}
	return p
}

// benignURL renders a URL of 60 to 200 characters with the versioned
// paths, content hashes and query strings real sub-resources carry.
func benignURL(rng *xrand.RNG, host, typ string, exts []string) string {
	var b strings.Builder
	b.WriteString("https://")
	b.WriteString(host)
	b.WriteByte('/')
	hex := func(n int) {
		const digits = "0123456789abcdef"
		for i := 0; i < n; i++ {
			b.WriteByte(digits[rng.Intn(16)])
		}
	}
	if typ == "xmlhttprequest" {
		fmt.Fprintf(&b, "api/v%d/%s/items?page=%d&limit=%d&session=",
			1+rng.Intn(3), pathNames[rng.Intn(len(pathNames))], 1+rng.Intn(40), 10*(1+rng.Intn(5)))
		hex(24)
	} else {
		b.WriteString(pathDirs[rng.Intn(len(pathDirs))])
		fmt.Fprintf(&b, "/v%d.%d.%d/", 1+rng.Intn(12), rng.Intn(20), rng.Intn(10))
		b.WriteString(pathNames[rng.Intn(len(pathNames))])
		b.WriteByte('-')
		hex(8 + 4*rng.Intn(3))
		b.WriteString(exts[rng.Intn(len(exts))])
		fmt.Fprintf(&b, "?v=201504%02d", 1+rng.Intn(28))
	}
	// A third of the URLs drag a long query string along.
	if rng.Intn(3) == 0 {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			fmt.Fprintf(&b, "&%s=", pathNames[rng.Intn(len(pathNames))])
			hex(12 + rng.Intn(12))
		}
	}
	return b.String()
}

// zipf draws ranks with probability proportional to 1/rank.
type zipf struct{ cdf []float64 }

func newZipf(n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for k := 1; k <= n; k++ {
		sum += 1 / float64(k)
		z.cdf[k-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// draw maps a uniform u in [0,1) to a 0-based rank index.
func (z *zipf) draw(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// call is one request to the service and what the oracle knows about it.
type call struct {
	batch  *api.BatchRequest // nil for a /v1/match call
	single api.MatchRequest
	easy   bool // decided under profileEasy instead of the full profile
	// expect holds, per tuple, an index into the workload's samples, or
	// -1 where the oracle has no expectation; nil means none at all.
	expect []int32
	// base is the visited page's tuples before the visit token went on
	// (page_cold only): it tells the sampler each request's class.
	base []tuple
}

func (c *call) decisions() int {
	if c.batch == nil {
		return 1
	}
	return len(c.batch.Requests)
}

// workload is the traffic of one named workload under one seed.
type workload struct {
	name   string
	seed   uint64
	corpus *corpus
	conns  int
	scale  int // shrinks the universes for tests; 1 is the real thing
	zipf   *zipf

	// The stable-URL workloads draw from a fixed tuple universe, laid out
	// page after page in rank order: pageStart[p] is where page p begins.
	tuples    []tuple
	pageStart []int
	batches   []api.BatchRequest // page_hot, reload_churn: one per page
	expect    []int32            // per tuple, as call.expect

	// page_cold has no fixed universe; its first coldExpect[c] calls on
	// connection c are the ones the oracle checks.
	coldExpect [][][]int32

	samples []sample
}

func newWorkload(name string, fix *fixture, seed uint64, conns, scale int) (*workload, error) {
	w := &workload{name: name, seed: seed, corpus: newCorpus(fix, seed), conns: conns, scale: scale}
	switch name {
	case wlPageCold:
		w.zipf = newZipf(coldRanks / scale)
		w.coldExpect = make([][][]int32, conns)
	case wlPageHot, wlReloadChurn:
		w.addPages(hotPages/scale, 0)
		w.zipf = newZipf(len(w.pageStart) - 1)
		w.batches = make([]api.BatchRequest, len(w.pageStart)-1)
		for p := range w.batches {
			ts := w.tuples[w.pageStart[p]:w.pageStart[p+1]]
			reqs := make([]api.MatchRequest, len(ts))
			for i, t := range ts {
				reqs[i] = t.wire()
			}
			w.batches[p].Requests = reqs
		}
	case wlSingleZipf:
		w.addPages(0, zipfTuples/scale)
		w.tuples = w.tuples[:zipfTuples/scale]
		w.zipf = newZipf(len(w.tuples))
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	w.expect = make([]int32, len(w.tuples))
	for i := range w.expect {
		w.expect[i] = -1
	}
	return w, nil
}

// addPages lays out pages from rank 1 on until there are nPages of them
// or, with nPages 0, at least nTuples tuples.
func (w *workload) addPages(nPages, nTuples int) {
	for rank := 1; ; rank++ {
		if nPages > 0 && rank > nPages || nPages == 0 && len(w.tuples) >= nTuples {
			break
		}
		w.pageStart = append(w.pageStart, len(w.tuples))
		w.tuples = append(w.tuples, w.corpus.page(rank).tuples...)
	}
	w.pageStart = append(w.pageStart, len(w.tuples))
}

// stream is the deterministic call sequence of one connection.
type stream struct {
	w    *workload
	conn int
	rng  *xrand.RNG
	seq  int
}

func (w *workload) stream(conn int) *stream {
	key := w.name + "/conn" + strconv.Itoa(conn)
	return &stream{w: w, conn: conn, rng: xrand.New(xrand.Hash64(w.seed, key))}
}

// next builds the connection's next call.
func (s *stream) next() *call {
	w := s.w
	seq := s.seq
	s.seq++
	idx := w.zipf.draw(s.rng.Float64())
	switch w.name {
	case wlPageCold:
		p := w.corpus.page(idx + 1)
		c := &call{batch: w.coldVisit(p, s.conn, seq), base: p.tuples}
		if seq < len(w.coldExpect[s.conn]) {
			c.expect = w.coldExpect[s.conn][seq]
		}
		return c
	case wlSingleZipf:
		c := &call{single: w.tuples[idx].wire(), expect: w.expect[idx : idx+1]}
		if seq%easyEvery == easyEvery-1 {
			c.easy = true
			c.single.Profile = profileEasy
		}
		return c
	default:
		return &call{
			batch:  &w.batches[idx],
			expect: w.expect[w.pageStart[idx]:w.pageStart[idx+1]],
		}
	}
}

// coldVisit is one visit to p with a token unique to the visit on every
// sub-resource URL, so no two visits share a cache key.
func (w *workload) coldVisit(p *page, conn, seq int) *api.BatchRequest {
	token := strconv.FormatUint(xrand.Hash64(w.seed, fmt.Sprintf("visit/%d/%d", conn, seq)), 16)
	reqs := make([]api.MatchRequest, len(p.tuples))
	for i, t := range p.tuples {
		reqs[i] = t.wire()
		sep := "?_="
		if strings.IndexByte(t.url, '?') >= 0 {
			sep = "&_="
		}
		reqs[i].URL = t.url + sep + token
	}
	return &api.BatchRequest{Requests: reqs}
}

// preload returns the calls that bring the server to the workload's
// steady state before the warm-up: every resident page once, or
// single_zipf's most popular tuples up to the cache capacity, in batches.
func (w *workload) preload() []*call {
	var out []*call
	switch w.name {
	case wlPageHot, wlReloadChurn:
		for p := range w.batches {
			out = append(out, &call{
				batch:  &w.batches[p],
				expect: w.expect[w.pageStart[p]:w.pageStart[p+1]],
			})
		}
	case wlSingleZipf:
		const per = 256
		n := preloadTuples / w.scale
		// Least popular first, so the most popular end up most recent.
		for hi := n; hi > 0; hi -= per {
			lo := hi - per
			if lo < 0 {
				lo = 0
			}
			reqs := make([]api.MatchRequest, 0, per)
			for _, t := range w.tuples[lo:hi] {
				reqs = append(reqs, t.wire())
			}
			out = append(out, &call{batch: &api.BatchRequest{Requests: reqs}, expect: w.expect[lo:hi]})
		}
	}
	return out
}
