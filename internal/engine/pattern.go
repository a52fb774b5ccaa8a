// Package engine implements Adblock Plus's matching semantics over parsed
// filters: request matching with keyword-indexed filter buckets, element
// hiding with an id/class-indexed selector set, exception precedence,
// whole-page $document/$elemhide allowances, and sitekey gating. It is the
// "instrumented Adblock Plus" of the paper's §5 — every filter activation
// can be recorded through a Recorder hook, including the "needless"
// whitelist activations the paper highlights.
package engine

import (
	"regexp"
	"strings"

	"acceptableads/internal/filter"
)

// pattern is a compiled request matching expression.
//
// Non-regex filters compile to segments: literal byte runs separated by '*'
// wildcards. The '^' separator placeholder stays embedded in segments and is
// interpreted during matching ("anything but a letter, a digit, or one of
// _ - . %", or the end of the URL).
// The five booleans trail the pointer-sized fields so the struct packs
// into 64 bytes — it is inlined by value into every compiledRequest, so
// its padding is multiplied by the corpus size.
type pattern struct {
	segments []string
	re       *regexp.Regexp // non-nil for /.../ regex filters

	// kwHash is the fnv64 of the filter's indexing keyword, valid when
	// hasKW; keyword-less filters (and regex filters, whose source text
	// is not literal) go to the always-probed slow bucket.
	kwHash uint64

	// hostKey is the pattern host under which the filter is filed in the
	// reversed-domain host index, or "" when it is not host-keyable (see
	// trieHostKey). Host-keyed filters skip the keyword buckets entirely.
	hostKey string

	anchorStart  bool
	anchorEnd    bool
	anchorDomain bool
	matchCase    bool
	hasKW        bool
}

// compilePattern builds a matcher for a request filter. Regex filters
// compile through the regexp package; everything else uses the segment
// matcher. An error is returned only for invalid regular expressions.
func compilePattern(f *filter.Filter) (*pattern, error) {
	p := new(pattern)
	if err := compilePatternInto(f, p); err != nil {
		return nil, err
	}
	return p, nil
}

// compilePatternInto compiles f into a caller-provided pattern slot —
// the arena form: compileFilters points each worker at a slab cell so
// every pattern of a list lands in one contiguous allocation.
func compilePatternInto(f *filter.Filter, p *pattern) error {
	*p = pattern{
		anchorStart:  f.AnchorStart,
		anchorEnd:    f.AnchorEnd,
		anchorDomain: f.AnchorDomain,
		matchCase:    f.MatchCase,
	}
	if f.IsRegex {
		// Slash-delimited filters are regexes by syntax, but most (like
		// EasyList's "/ad-frame/") contain no metacharacters at all; a
		// plain substring match is equivalent and orders of magnitude
		// cheaper. They still probe on every request (no keyword bucket:
		// their edge runs lack boundary characters), so the win is all in
		// the match itself. BenchmarkAblationLiteralRegex* measures it.
		if isLiteralRegex(f.Pattern) {
			text := f.Pattern
			if !f.MatchCase {
				text = strings.ToLower(text)
			}
			p.segments = []string{text}
			p.setKeyword(f)
			return nil
		}
		expr := f.Pattern
		if !f.MatchCase {
			expr = "(?i)" + expr
		}
		re, err := regexp.Compile(expr)
		if err != nil {
			return err
		}
		p.re = re
		return nil
	}
	text := f.Pattern
	if !f.MatchCase {
		text = strings.ToLower(text)
	}
	// Empty segments are dropped, except at an edge an anchor holds: a
	// '*' next to an anchor lets the pattern float, as in Adblock Plus, so
	// "|*foo" and "foo*|" match like "foo" while "||*foo" still starts at
	// a host boundary. A pattern of only wildcards matches every URL.
	segs := strings.Split(text, "*")
	for i, seg := range segs {
		if seg != "" || i == 0 && (f.AnchorStart || f.AnchorDomain) || i == len(segs)-1 && f.AnchorEnd {
			p.segments = append(p.segments, seg)
		}
	}
	p.setKeyword(f)
	p.hostKey = trieHostKey(f)
	return nil
}

// setKeyword computes the indexing keyword hash at compile time, once per
// filter, so the index never re-derives it.
func (p *pattern) setKeyword(f *filter.Filter) {
	if p.re != nil {
		return
	}
	if kw := filterKeyword(anchoredText(p, f.Pattern)); kw != "" {
		p.kwHash = fnv64(kw)
		p.hasKW = true
	}
}

// isLiteralRegex reports whether a regex body is a plain literal: no
// metacharacters, so substring matching is equivalent. '^' is excluded —
// inside a slash-delimited filter it is a real regex anchor, not the
// Adblock separator class.
func isLiteralRegex(expr string) bool {
	for i := 0; i < len(expr); i++ {
		c := expr[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-', c == '_', c == '/', c == '%', c == ',', c == '=', c == ':', c == ';', c == '!', c == ' ':
		default:
			return false
		}
	}
	return true
}

// isSeparator implements the '^' placeholder character class.
func isSeparator(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return false
	case b == '_', b == '-', b == '.', b == '%':
		return false
	}
	return true
}

// match reports whether the pattern matches url. lower is the pre-lowered
// copy of url shared across all filters for one request, and bounds the
// request's memoized '||' candidate positions (appendDomainBoundaries of
// lower — byte offsets, identical in url and lower, so one slice serves
// both the case-sensitive and the case-folded subject).
func (p *pattern) match(url, lower string, bounds []int) bool {
	if p.re != nil {
		return p.re.MatchString(url)
	}
	subject := lower
	if p.matchCase {
		subject = url
	}
	return matchSegments(subject, p.segments, p.anchorStart, p.anchorEnd, p.anchorDomain, bounds)
}

// matchSegAt attempts to match one segment at position pos, returning the
// number of bytes consumed. A '^' consumes one separator byte, or zero
// bytes at the end of the URL (every trailing '^' may match the end).
func matchSegAt(url string, pos int, seg string) (int, bool) {
	i := pos
	for k := 0; k < len(seg); k++ {
		c := seg[k]
		if i >= len(url) {
			// URL exhausted: the rest of the segment must be '^'s,
			// each matching the end-of-address position.
			for ; k < len(seg); k++ {
				if seg[k] != '^' {
					return 0, false
				}
			}
			return i - pos, true
		}
		if c == '^' {
			if !isSeparator(url[i]) {
				return 0, false
			}
			i++
			continue
		}
		if url[i] != c {
			return 0, false
		}
		i++
	}
	return i - pos, true
}

// findSeg returns the first position >= from where seg matches, and the
// bytes consumed there, or (-1, 0). Segments without a '^' placeholder are
// plain substrings, so strings.Index does the scan; segments with a
// leading literal use it to skip between candidate positions instead of
// re-attempting a full match at every byte.
func findSeg(url string, from int, seg string) (int, int) {
	if from > len(url) {
		return -1, 0
	}
	caret := strings.IndexByte(seg, '^')
	if caret < 0 {
		i := strings.Index(url[from:], seg)
		if i < 0 {
			return -1, 0
		}
		return from + i, len(seg)
	}
	if caret > 0 {
		pre := seg[:caret]
		for pos := from; pos <= len(url)-len(pre); {
			i := strings.Index(url[pos:], pre)
			if i < 0 {
				return -1, 0
			}
			pos += i
			if n, ok := matchSegAt(url, pos, seg); ok {
				return pos, n
			}
			pos++
		}
		return -1, 0
	}
	for pos := from; pos <= len(url); pos++ {
		if n, ok := matchSegAt(url, pos, seg); ok {
			return pos, n
		}
	}
	return -1, 0
}

// appendDomainBoundaries appends to dst the candidate start positions for
// a '||'-anchored match: right after the scheme, or after any dot inside
// the hostname. The request derives the result once (indexSide.bounds) so
// every '||'-anchored candidate of a decision reuses one slice; before
// that, each candidate allocated its own — the single biggest per-decision
// allocator.
func appendDomainBoundaries(dst []int, url string) []int {
	hostStart := 0
	if i := strings.Index(url, "://"); i >= 0 {
		hostStart = i + 3
	} else if strings.HasPrefix(url, "//") {
		hostStart = 2
	}
	hostEnd := len(url)
	for i := hostStart; i < len(url); i++ {
		switch url[i] {
		case '/', '?', '#', ':':
			hostEnd = i
		}
		if hostEnd != len(url) {
			break
		}
	}
	dst = append(dst, hostStart)
	for i := hostStart; i < hostEnd; i++ {
		if url[i] == '.' {
			dst = append(dst, i+1)
		}
	}
	return dst
}

// matchSegments matches the '*'-joined segments in one forward pass. The
// first is placed by its anchor: '|' at 0, '||' at the first host boundary
// where it matches, otherwise at its leftmost match. Each later segment
// takes its leftmost match after the one before.
//
// Leftmost is complete: a segment consumes its own length at any position
// except the end of the URL, where its trailing '^'s consume nothing, so a
// segment that starts later never ends earlier. A later start only leaves
// less of the URL for the segments after it, and no placement is retried:
// one decision is linear in the URL. An end-anchored last segment is
// searched from len(url)-len(seg) on, where every match ends at the end.
func matchSegments(url string, segs []string, anchorStart, anchorEnd, anchorDomain bool, bounds []int) bool {
	pos := 0
	for i, seg := range segs {
		if anchorEnd && i == len(segs)-1 {
			pos = max(pos, len(url)-len(seg))
		}
		p, n := -1, 0
		switch {
		case i > 0 || !anchorStart && !anchorDomain:
			p, n = findSeg(url, pos, seg)
		case anchorStart:
			if k, ok := matchSegAt(url, 0, seg); ok && pos == 0 {
				p, n = 0, k
			}
		default:
			for _, b := range bounds {
				if k, ok := matchSegAt(url, b, seg); ok && b >= pos {
					p, n = b, k
					break
				}
			}
		}
		if p < 0 {
			return false
		}
		pos = p + n
	}
	return true
}
