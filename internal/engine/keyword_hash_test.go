package engine

import (
	"strings"
	"testing"

	"acceptableads/internal/xrand"
)

// TestKeywordHashesMatchReference: the in-place hashed probe set must be
// exactly the fnv64 of the reference substring extraction, deduplicated in
// first-occurrence order.
func TestKeywordHashesMatchReference(t *testing.T) {
	rng := xrand.New(31337)
	urls := []string{
		"http://ads.example.com/ads/ads/banner.gif", // repeated run → one probe
		"http://stats.g.doubleclick.net/r/collect",
		"http://x.example/%7e%7e/abc%def",
		"ab/cd/ef", // only too-short runs
		"",
	}
	for i := 0; i < 500; i++ {
		urls = append(urls, strings.ToLower(genExoticURL(rng)))
	}
	for _, u := range urls {
		var want []uint64
		for _, kw := range urlKeywords(nil, u) {
			h := fnv64(kw)
			dup := false
			for _, have := range want {
				if have == h {
					dup = true
					break
				}
			}
			if !dup {
				want = append(want, h)
			}
		}
		got := appendURLKeywordHashes(nil, u)
		if len(got) != len(want) {
			t.Fatalf("%q: %d hashes, want %d", u, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q: hash[%d] = %#x, want %#x", u, i, got[i], want[i])
			}
		}
	}
}

// TestKeywordHashesDeduped: a URL repeating the same keyword run probes its
// bucket once.
func TestKeywordHashesDeduped(t *testing.T) {
	got := appendURLKeywordHashes(nil, "http://x.example/ads/ads/ads/a.gif")
	counts := make(map[uint64]int)
	for _, h := range got {
		counts[h]++
	}
	if counts[fnv64("ads")] != 1 {
		t.Errorf(`"ads" hashed %d times, want 1 (probes = %d)`, counts[fnv64("ads")], len(got))
	}
	for h, n := range counts {
		if n > 1 {
			t.Errorf("hash %#x appears %d times", h, n)
		}
	}
}

// TestPagePermissionsMemoized: one PagePermissions call derives the
// index side exactly once, and the $document and $elemhide probes share
// it.
func TestPagePermissionsMemoized(t *testing.T) {
	e := mustEngine(t,
		listOf("easylist", "||ads.example^"),
		listOf("exceptionrules", "@@||parked.example^$document\n@@||ask.com^$elemhide"),
	)
	before := prepares.Load()
	if f := e.PagePermissions("http://parked.example/landing", ""); !f.DocumentAllowed {
		t.Errorf("DocumentAllowed not granted: %+v", f)
	}
	if f := e.PagePermissions("http://www.ask.com/", ""); !f.ElemHideDisabled || f.DocumentAllowed {
		t.Errorf("ElemHide flags wrong: %+v", f)
	}
	if f := e.PagePermissions("http://plain.example/", ""); f.DocumentAllowed || f.ElemHideDisabled {
		t.Errorf("unexpected grant: %+v", f)
	}
	if got := prepares.Load() - before; got != 3 {
		t.Errorf("index side derived %d times across 3 PagePermissions calls, want 3 (once per call)", got)
	}
}
