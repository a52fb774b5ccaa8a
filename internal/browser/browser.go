// Package browser is the instrumented headless browser of §5: it loads a
// page over HTTP (cookies, redirects, User-Agent all live), verifies any
// sitekey the server presents, consults the Adblock Plus engine for the
// page-level allowances, replays every sub-resource request and DOM
// element through the engine, records all filter activations, and fetches
// the resources the engine allows — the Selenium-plus-instrumented-ABP
// setup of the paper, minus the real Firefox.
//
// Visits are deadline- and budget-bounded: PageTimeout caps one page load
// end to end, MaxRedirects bounds every redirect chain hop-by-hop (each
// hop's body capped at maxBody — a hostile chain cannot stream unbounded
// bytes through intermediate responses), and MaxTotalBytes is a per-visit
// download budget across the landing page and all fetched sub-resources.
package browser

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"strings"
	"time"

	"acceptableads/internal/domainutil"
	"acceptableads/internal/engine"
	"acceptableads/internal/htmldom"
	"acceptableads/internal/obs"
	"acceptableads/internal/retry"
	"acceptableads/internal/sitekey"
)

// DefaultUserAgent mimics a 2015 Firefox, the browser the paper drove.
const DefaultUserAgent = "Mozilla/5.0 (X11; Linux x86_64; rv:37.0) Gecko/20100101 Firefox/37.0"

// maxBody bounds how much of any single response — final or intermediate
// redirect hop — the browser reads.
const maxBody = 4 << 20

// DefaultMaxRedirects bounds a request's redirect chain when
// Browser.MaxRedirects is 0 (net/http's historical default).
const DefaultMaxRedirects = 10

// DefaultMaxTotalBytes is the per-visit download budget when
// Browser.MaxTotalBytes is 0.
const DefaultMaxTotalBytes = 16 << 20

// ErrBodyBudget reports that a visit's total-bytes budget is exhausted;
// remaining sub-resource fetches are skipped, not failed.
var ErrBodyBudget = errors.New("browser: page byte budget exhausted")

// Browser drives page loads through an engine. Each Visit records through
// a private recording view, so multiple Browsers may share one engine and
// a single Browser may run concurrent Visits (the cookie jar is
// thread-safe); only the exported configuration fields must not be
// mutated mid-crawl.
type Browser struct {
	client *http.Client
	engine *engine.Engine
	// UserAgent is sent on every request and bound into sitekey
	// signatures.
	UserAgent string
	// FetchResources controls whether allowed sub-resources are actually
	// downloaded (the survey counts matches either way; fetching
	// exercises the full network path).
	FetchResources bool
	// AnnounceAdblock sends the X-Simulated-Adblock header, standing in
	// for the script-based ad-block detection some sites (imgur) run.
	AnnounceAdblock bool
	// PageTimeout bounds one Visit/Get end to end (landing page,
	// redirects and sub-resource fetches); 0 leaves only the client's
	// own timeout.
	PageTimeout time.Duration
	// MaxRedirects bounds each request's redirect chain; 0 means
	// DefaultMaxRedirects.
	MaxRedirects int
	// MaxTotalBytes is the per-visit download budget across all hops and
	// sub-resources; 0 means DefaultMaxTotalBytes.
	MaxTotalBytes int64
	// Breaker, when non-nil, gates sub-resource fetches per host:
	// repeatedly failing resource hosts are skipped, not hammered.
	Breaker *retry.Breaker
	// DiffViews, when both are non-nil, additionally evaluates every
	// sub-resource request differentially under the two profile views
	// (engine.Diff, one index pass) and counts verdict flips on the
	// Visit. Both views must be over the same engine the browser matches
	// with. The page's blocking behavior is unchanged — the diff is
	// measurement only.
	DiffViews [2]*engine.View

	// metrics is the optional telemetry hook; nil (the default) records
	// nothing. See SetObs.
	metrics *browserMetrics
}

// browserMetrics pre-resolves the browser's instruments.
type browserMetrics struct {
	pages     *obs.Counter
	pageLat   *obs.Histogram
	requests  *obs.Counter
	blocked   *obs.Counter
	fetched   *obs.Counter
	bytes     *obs.Counter
	redirects *obs.Counter
}

// SetObs wires page-load telemetry into reg; nil disables it. Like the
// other configuration fields, set it before the crawl starts.
func (b *Browser) SetObs(reg *obs.Registry) {
	if reg == nil {
		b.metrics = nil
		return
	}
	b.metrics = &browserMetrics{
		pages:     reg.Counter("browser.pages"),
		pageLat:   reg.Histogram("browser.page.latency"),
		requests:  reg.Counter("browser.requests"),
		blocked:   reg.Counter("browser.blocked"),
		fetched:   reg.Counter("browser.fetched"),
		bytes:     reg.Counter("browser.bytes"),
		redirects: reg.Counter("browser.redirects"),
	}
}

// New wraps an HTTP client (typically webserver.Client) with a fresh
// cookie jar and the filter engine. eng may be nil for a record-nothing
// crawler (the parked-domain prober). The browser follows redirects
// itself — hop by hop, each hop's body capped — so the client's own
// redirect policy is overridden.
func New(client *http.Client, eng *engine.Engine, userAgent string) (*Browser, error) {
	jar, err := cookiejar.New(nil)
	if err != nil {
		return nil, fmt.Errorf("browser: cookie jar: %w", err)
	}
	c := *client
	c.Jar = jar
	c.CheckRedirect = func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse
	}
	if userAgent == "" {
		userAgent = DefaultUserAgent
	}
	return &Browser{
		client:          &c,
		engine:          eng,
		UserAgent:       userAgent,
		FetchResources:  true,
		AnnounceAdblock: true,
	}, nil
}

// Visit is the result of one page load.
type Visit struct {
	// URL is the requested URL; FinalURL the one after redirects.
	URL, FinalURL string
	// Status is the final HTTP status code.
	Status int
	// Redirects is the length of the landing page's redirect chain.
	Redirects int
	// SitekeyB64 is the verified base64 sitekey the server presented, "".
	SitekeyB64 string
	// Flags are the page-level allowances the engine granted.
	Flags engine.PageFlags
	// Activations are all recorded filter firings, in order.
	Activations []engine.Activation
	// Requests is the number of sub-resource requests the page issued.
	Requests int
	// BlockedRequests counts requests the engine cancelled.
	BlockedRequests int
	// FetchedRequests counts allowed requests actually downloaded.
	FetchedRequests int
	// DiffFlipped counts sub-resource requests whose verdict differed
	// between the browser's two DiffViews (0 when DiffViews is unset) —
	// e.g. blocked under EasyList alone, allowed with the Acceptable Ads
	// exceptions in scope.
	DiffFlipped int
	// DOM is the parsed landing page.
	DOM *htmldom.Node
	// Hidden lists element-hiding decisions.
	Hidden []engine.ElementMatch
}

// pageCtx applies the per-page deadline, if any.
func (b *Browser) pageCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if b.PageTimeout > 0 {
		return context.WithTimeout(ctx, b.PageTimeout)
	}
	return ctx, func() {}
}

// budget returns the visit's fresh byte budget.
func (b *Browser) budget() int64 {
	if b.MaxTotalBytes > 0 {
		return b.MaxTotalBytes
	}
	return DefaultMaxTotalBytes
}

// Get performs a plain instrumented GET without filter evaluation,
// returning the final response and body. The parked-domain prober uses it.
func (b *Browser) Get(url string) (*http.Response, []byte, error) {
	return b.GetContext(context.Background(), url)
}

// GetContext is Get under a caller context (plus the browser's
// PageTimeout, when set).
func (b *Browser) GetContext(ctx context.Context, url string) (*http.Response, []byte, error) {
	ctx, cancel := b.pageCtx(ctx)
	defer cancel()
	budget := b.budget()
	resp, body, _, err := b.get(ctx, url, false, &budget)
	return resp, body, err
}

// get performs one instrumented GET, following redirects hop by hop: each
// hop's body is drained under the maxBody cap and charged to the visit
// budget, and the chain is bounded by MaxRedirects. It returns the final
// response, its body, and the chain length.
func (b *Browser) get(ctx context.Context, rawURL string, dnt bool, budget *int64) (*http.Response, []byte, int, error) {
	maxRed := b.MaxRedirects
	if maxRed <= 0 {
		maxRed = DefaultMaxRedirects
	}
	urlStr := rawURL
	for hop := 0; ; hop++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, urlStr, nil)
		if err != nil {
			return nil, nil, hop, fmt.Errorf("browser: %w", err)
		}
		req.Header.Set("User-Agent", b.UserAgent)
		if b.AnnounceAdblock {
			req.Header.Set("X-Simulated-Adblock", "1")
		}
		if dnt {
			req.Header.Set("DNT", "1")
		}
		resp, err := b.client.Do(req)
		if err != nil {
			return nil, nil, hop, fmt.Errorf("browser: get %s: %w", urlStr, err)
		}
		if loc := redirectTarget(resp); loc != "" {
			b.drain(resp, budget)
			if m := b.metrics; m != nil {
				m.redirects.Inc()
			}
			if hop+1 > maxRed {
				return nil, nil, hop + 1, fmt.Errorf("browser: get %s: %d redirects: %w",
					rawURL, hop+1, retry.ErrTooManyRedirects)
			}
			urlStr = loc
			continue
		}
		body, err := b.readBody(resp, budget)
		resp.Body.Close()
		if err != nil {
			return nil, nil, hop, fmt.Errorf("browser: read %s: %w", urlStr, err)
		}
		return resp, body, hop, nil
	}
}

// redirectTarget returns the resolved Location of a redirect response,
// or "" when the response is final.
func redirectTarget(resp *http.Response) string {
	switch resp.StatusCode {
	case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther,
		http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		if u, err := resp.Location(); err == nil {
			return u.String()
		}
	}
	return ""
}

// readBody reads a response body under the per-response cap and the
// visit budget, charging what it read.
func (b *Browser) readBody(resp *http.Response, budget *int64) ([]byte, error) {
	limit := int64(maxBody)
	if budget != nil {
		if *budget <= 0 {
			return nil, ErrBodyBudget
		}
		if *budget < limit {
			limit = *budget
		}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if budget != nil {
		*budget -= int64(len(body))
	}
	if m := b.metrics; m != nil {
		m.bytes.Add(int64(len(body)))
	}
	return body, err
}

// drain discards an intermediate hop's body under the same caps as
// readBody, so redirect chains cannot smuggle unbounded bytes.
func (b *Browser) drain(resp *http.Response, budget *int64) {
	n, _ := io.Copy(io.Discard, io.LimitReader(resp.Body, maxBody))
	resp.Body.Close()
	if budget != nil {
		*budget -= n
	}
	if m := b.metrics; m != nil {
		m.bytes.Add(n)
	}
}

// Visit loads a page and runs the full instrumented pipeline.
func (b *Browser) Visit(url string) (*Visit, error) {
	return b.VisitContext(context.Background(), url)
}

// VisitContext is Visit under a caller context: the page load, its
// redirects and every sub-resource fetch observe ctx plus the browser's
// PageTimeout, and share one MaxTotalBytes download budget.
func (b *Browser) VisitContext(ctx context.Context, url string) (*Visit, error) {
	var start time.Time
	if b.metrics != nil {
		start = time.Now()
	}
	ctx, cancel := b.pageCtx(ctx)
	defer cancel()
	budget := b.budget()
	resp, body, hops, err := b.get(ctx, url, false, &budget)
	if err != nil {
		return nil, err
	}
	v := &Visit{
		URL:       url,
		FinalURL:  resp.Request.URL.String(),
		Status:    resp.StatusCode,
		Redirects: hops,
	}
	v.DOM = htmldom.Parse(string(body))
	if b.engine == nil {
		if m := b.metrics; m != nil {
			m.pages.Inc()
			m.pageLat.Observe(time.Since(start))
		}
		return v, nil
	}

	// Record every activation of this visit through a private recording
	// view, so browsers sharing one engine can crawl concurrently.
	full, err := b.engine.View(engine.DefaultProfile)
	if err != nil {
		return nil, err
	}
	view := full.WithRecorder(engine.RecorderFunc(func(a engine.Activation) {
		v.Activations = append(v.Activations, a)
	}))

	// Sitekey verification: the X-Adblock-key header first, then the
	// data-adblockkey attribute of the root element.
	host := domainutil.HostOf(v.FinalURL)
	uri := resp.Request.URL.RequestURI()
	if header := resp.Header.Get("X-Adblock-key"); header != "" {
		if key, err := sitekey.VerifyHeader(header, uri, host, b.UserAgent); err == nil {
			v.SitekeyB64 = key
		}
	}
	if v.SitekeyB64 == "" {
		if attr := htmlAdblockKey(v.DOM); attr != "" {
			if key, err := sitekey.VerifyHeader(attr, uri, host, b.UserAgent); err == nil {
				v.SitekeyB64 = key
			}
		}
	}

	v.Flags = view.PagePermissions(v.FinalURL, v.SitekeyB64)

	// Sub-resource requests.
	for _, res := range htmldom.ExtractResources(v.DOM, v.FinalURL) {
		if strings.HasPrefix(res.URL, "data:") {
			continue
		}
		v.Requests++
		allowed, dnt := true, false
		if !v.Flags.DocumentAllowed {
			req, rerr := engine.NewRequest(res.URL, v.FinalURL, res.Type)
			if rerr != nil {
				// Unparseable resource URL: match it as-is, like a real
				// blocker matching whatever the page emitted.
				req = &engine.Request{URL: res.URL, Type: res.Type, DocumentHost: host}
			}
			d := view.MatchRequest(req)
			if d.Verdict == engine.Blocked {
				allowed = false
				v.BlockedRequests++
			}
			dnt = d.DoNotTrack
			if va, vb := b.DiffViews[0], b.DiffViews[1]; va != nil && vb != nil {
				if b.engine.Diff(req, va, vb).Flipped {
					v.DiffFlipped++
				}
			}
		}
		if allowed && b.FetchResources && budget > 0 && ctx.Err() == nil {
			if b.fetchResource(ctx, res.URL, dnt, &budget) {
				v.FetchedRequests++
			}
		}
	}

	// Element hiding, unless a page-level allowance disabled it.
	if !v.Flags.DocumentAllowed && !v.Flags.ElemHideDisabled {
		v.Hidden = view.HideElements(v.DOM, v.FinalURL, host)
	}
	if m := b.metrics; m != nil {
		m.pages.Inc()
		m.pageLat.Observe(time.Since(start))
		m.requests.Add(int64(v.Requests))
		m.blocked.Add(int64(v.BlockedRequests))
		m.fetched.Add(int64(v.FetchedRequests))
	}
	return v, nil
}

// fetchResource downloads one allowed sub-resource, gated by the
// per-host circuit breaker when one is configured.
func (b *Browser) fetchResource(ctx context.Context, url string, dnt bool, budget *int64) bool {
	host := domainutil.HostOf(url)
	if b.Breaker != nil && !b.Breaker.Allow(host) {
		return false
	}
	_, _, _, err := b.get(ctx, url, dnt, budget)
	if b.Breaker != nil {
		b.Breaker.Record(host, err)
	}
	return err == nil
}

// htmlAdblockKey extracts the data-adblockkey attribute from the document's
// root html element.
func htmlAdblockKey(doc *htmldom.Node) string {
	for _, n := range doc.Children {
		if n.Tag == "html" {
			if v, ok := n.Attr("data-adblockkey"); ok {
				return v
			}
		}
	}
	return ""
}
