package engine

import (
	"fmt"
	"net/url"
	"strings"
	"sync/atomic"

	"acceptableads/internal/domainutil"
	"acceptableads/internal/filter"
)

// NewRequest builds a validated Request with its key side derived: the
// document host and the third-party bit, which together with URL and Type
// are everything the decision cache keys on. docURL is the URL (or bare
// host) of the page issuing the request; it drives $domain restrictions
// and the third-party test. The index side — lowered URL, keyword probes,
// '||' boundaries, host keys, 4-gram bloom — is derived once, by the first
// call that walks the index, so a request that only ever hits the cache
// never pays for it.
//
// Validation happens at the edge: an empty or unparseable URL, or one
// without a host, returns an error instead of silently never matching deep
// inside the engine. Scheme-relative URLs ("//host/path") are accepted —
// filter lists target them explicitly.
//
// A Request returned by NewRequest is safe for any number of concurrent
// MatchRequest readers, which is what the decision service relies on: the
// key side is complete and the index side is published atomically.
// (Requests built as struct literals still work everywhere but derive
// their key side lazily on first use, which is not synchronized.)
func NewRequest(rawURL, docURL string, typ filter.ContentType) (*Request, error) {
	if rawURL == "" {
		return nil, fmt.Errorf("engine: empty request URL")
	}
	if !plainHTTPURL(rawURL) {
		if err := parseRequestURL(rawURL); err != nil {
			return nil, err
		}
	}
	if typ == 0 {
		typ = filter.TypeOther
	}
	r := &Request{
		URL:          rawURL,
		Type:         typ,
		DocumentHost: domainutil.HostOf(docURL),
	}
	r.deriveKey()
	return r, nil
}

// plainHTTPURL recognises the common request shape without parsing it:
// "http://", "https://" or "//", a non-empty host of [A-Za-z0-9.-], an
// optional numeric port, then '/', '?', '#' or the end, the remainder
// visible ASCII with every '%' starting a valid escape. Everything it
// accepts, url.Parse accepts with a non-empty host (FuzzNewRequestValidation
// holds it to that); everything else is parseRequestURL's to judge.
func plainHTTPURL(s string) bool {
	switch {
	case strings.HasPrefix(s, "http://"):
		s = s[len("http://"):]
	case strings.HasPrefix(s, "https://"):
		s = s[len("https://"):]
	case strings.HasPrefix(s, "//"):
		s = s[len("//"):]
	default:
		return false
	}
	i := 0
	for i < len(s) && isHostByte(s[i]) {
		i++
	}
	if i == 0 {
		return false
	}
	if i < len(s) && s[i] == ':' {
		i++
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	}
	if i < len(s) && s[i] != '/' && s[i] != '?' && s[i] != '#' {
		return false
	}
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case c <= ' ' || c >= 0x7f:
			return false
		case c == '%':
			if i+2 >= len(s) || !isHexByte(s[i+1]) || !isHexByte(s[i+2]) {
				return false
			}
		}
	}
	return true
}

func isHostByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '.' || c == '-' || c >= 'A' && c <= 'Z'
}

func isHexByte(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// parseRequestURL is the full validation rule, and the source of every
// rejection's error text: the URL must parse and carry a host.
func parseRequestURL(rawURL string) error {
	parse := rawURL
	if strings.HasPrefix(parse, "//") {
		// net/url parses scheme-relative references fine, but only via
		// Parse (RequestURI rejects them); normalize for the host check.
		parse = "http:" + parse
	}
	u, err := url.Parse(parse)
	if err != nil {
		return fmt.Errorf("engine: malformed request URL %q: %w", rawURL, err)
	}
	if u.Host == "" {
		return fmt.Errorf("engine: request URL %q has no host", rawURL)
	}
	return nil
}

// deriveKey computes the key side for the request's current URL and
// document host.
func (r *Request) deriveKey() {
	r.third = domainutil.IsThirdParty(domainutil.HostOf(r.URL), r.DocumentHost)
	r.keyURL, r.keyDoc = r.URL, r.DocumentHost
}

// ThirdParty reports the third-party relation between the request and its
// document — key side, so it never derives the index side. It is memoized
// on the URL and document host it was computed for: NewRequest fills it,
// a struct-literal (or since-mutated) request derives it on first use.
func (r *Request) ThirdParty() bool {
	if r.keyURL != r.URL || r.keyDoc != r.DocumentHost {
		r.deriveKey()
	}
	return r.third
}

// indexSide is everything about a request that only an index walk reads,
// derived in one allocation and immutable once built: the slices point
// into the inline arrays. Those are sized so the block fills the 480-byte
// allocation class and covers the crawl corpus' 60–200-character URLs (6
// to 21 keyword runs, 99.8% within 20; hosts of up to six labels); a URL
// with more spills that one slice to the heap.
type indexSide struct {
	// url and doc are the request fields the block was derived from; a
	// request mutated since no longer matches them and derives afresh.
	url, doc string

	lower    string    // ASCII-lowered URL
	kwh      []uint64  // deduplicated keyword-run hashes, the index probes
	bounds   []int     // '||' candidate start positions in the URL
	hostKeys []string  // '||' boundary → next-separator spans, the host-index probes
	fp       [4]uint64 // 256-bit bloom over the lowered URL's 4-grams
	gateReq  uint64    // party bit + $domain= bloom, the request side of gatePass
	third    bool

	kwhBuf     [20]uint64
	boundsBuf  [6]int
	hostKeyBuf [6]string
}

// prepares counts index-side derivations — the two-phase guarantee (none
// before the first evaluation, one per request after it) is asserted
// against it in tests.
var prepares atomic.Uint64

// index returns the request's index side, deriving it on first use and
// again after the URL or document host changed. Concurrent first callers
// each derive a block and one is published; the losers match on their own
// copy, which holds the same values. m, when non-nil, counts the
// derivation.
func (r *Request) index(m *engineMetrics) *indexSide {
	old := r.ix.Load()
	if old != nil && old.url == r.URL && old.doc == r.DocumentHost {
		return old
	}
	prepares.Add(1)
	if m != nil {
		m.derivations.Inc()
	}
	ix := &indexSide{url: r.URL, doc: r.DocumentHost, lower: lowerASCII(r.URL), third: r.ThirdParty()}
	ix.kwh = appendURLKeywordHashes(ix.kwhBuf[:0], ix.lower)
	ix.bounds = appendDomainBoundaries(ix.boundsBuf[:0], ix.lower)
	ix.hostKeys = appendHostKeys(ix.hostKeyBuf[:0], ix.lower, ix.bounds)
	urlFingerprint(&ix.fp, ix.lower)
	// The request side of the packed pre-filter gates: the party bit and
	// the document host's $domain= bloom. The content type is read live
	// (PagePermissions flips it between probes without re-deriving).
	ix.gateReq = docDomainBloom(r.DocumentHost)
	if ix.third {
		ix.gateReq |= gateThirdParty
	} else {
		ix.gateReq |= gateFirstParty
	}
	r.ix.CompareAndSwap(old, ix)
	return ix
}

// LowerURL returns the ASCII-lowercased request URL — index side, so the
// first call derives the whole block.
func (r *Request) LowerURL() string {
	return r.index(nil).lower
}
