package engine

import (
	"strings"

	"acceptableads/internal/filter"
)

// Candidate pruning v2: every indexed filter carries one packed pre-filter
// word, and a request carries a handful of precomputed probe values, so
// almost every non-matching candidate dies on a few integer compares
// before any string work runs. The word packs four independent gates:
//
//	bits  0..13  content-type mask (filter.TypeScript .. filter.TypeDTD)
//	bit   14     matches first-party requests
//	bit   15     matches third-party requests
//	bits 16..23  fingerprint bit A (position in the request's 256-bit bloom)
//	bits 24..31  fingerprint bit B
//	bits 32..47  $domain= bitmap: 16-bit bloom over the positive domains
//	bit   48     has a pattern fingerprint (bits A/B are meaningful)
//	bit   49     requires a sitekey (dead when the request carries none)
//
// Every gate is sound, never complete: a word may pass for a filter that
// does not match (the full per-filter gates still run afterwards), but it
// never rejects a filter that would match. The differential tests lean on
// that direction.
const (
	gateTypeMask   = uint64(1)<<14 - 1
	gateFirstParty = uint64(1) << 14
	gateThirdParty = uint64(1) << 15
	gatePartyMask  = gateFirstParty | gateThirdParty

	gateFPAShift = 16
	gateFPBShift = 24

	gateDomainShift = 32
	gateDomainBits  = 16
	gateDomainMask  = (uint64(1)<<gateDomainBits - 1) << gateDomainShift

	gateHasFP       = uint64(1) << 48
	gateNeedSitekey = uint64(1) << 49
)

// fpGram is the n-gram length of the pattern fingerprint. The request
// blooms every 4-byte window of its lowered URL into 256 bits; a pattern
// contributes the bloom positions of (up to) two rare 4-grams of its
// literal text, which any URL it matches must contain.
const fpGram = 4

// buildGateWord packs the pre-filter word for one compiled filter.
// noFP (the fingerprint ablation) leaves the fingerprint gate open.
func buildGateWord(f *filter.Filter, p *pattern, noFP bool) uint64 {
	w := uint64(f.TypeMask) & gateTypeMask
	switch f.ThirdParty {
	case filter.Yes:
		w |= gateThirdParty
	case filter.No:
		w |= gateFirstParty
	default:
		w |= gatePartyMask
	}
	w |= domainWordBits(f)
	if len(f.Sitekeys) > 0 {
		w |= gateNeedSitekey
	}
	if !noFP {
		if a, b, ok := patternFingerprint(p); ok {
			w |= gateHasFP | uint64(a)<<gateFPAShift | uint64(b)<<gateFPBShift
		}
	}
	return w
}

// domainWordBits resolves the $domain= option into the word's 16-bit
// bitmap at build time. A filter restricted to positive domains can only
// activate when the document host is one of them (or a subdomain), so its
// bitmap is the bloom of those domains; a filter with no positive entries
// applies broadly and keeps the whole field set.
func domainWordBits(f *filter.Filter) uint64 {
	var bits uint64
	for _, d := range f.Domains {
		if d.Negated {
			continue
		}
		bits |= domainBit(d.Domain)
	}
	if bits == 0 {
		return gateDomainMask
	}
	return bits
}

// domainBit maps a normalized domain to its bit in the word's $domain=
// bitmap. Parse already normalizes option domains, so hashing the string
// bytes here and fold-hashing the document host's suffixes on the request
// side land equal domains on equal bits.
func domainBit(domain string) uint64 {
	return 1 << (gateDomainShift + fnv64(domain)%gateDomainBits)
}

// gatePass runs the packed pre-filter word against a request: one AND per
// gate, no string work. req.Type and req.Sitekey are read live
// (PagePermissions flips them between probes); the party bit, domain
// bloom and URL fingerprint come from the request's index side.
func gatePass(w uint64, req *Request, ix *indexSide) bool {
	if w&uint64(req.Type)&gateTypeMask == 0 {
		return false
	}
	m := w & ix.gateReq
	if m&gatePartyMask == 0 || m&gateDomainMask == 0 {
		return false
	}
	if w&gateNeedSitekey != 0 && req.Sitekey == "" {
		return false
	}
	if w&gateHasFP != 0 {
		a := (w >> gateFPAShift) & 0xFF
		if ix.fp[a>>6]&(1<<(a&63)) == 0 {
			return false
		}
		b := (w >> gateFPBShift) & 0xFF
		if ix.fp[b>>6]&(1<<(b&63)) == 0 {
			return false
		}
	}
	return true
}

// commonGrams are 4-grams so frequent in URLs that fingerprinting on them
// prunes nothing; the picker skips them (a pattern whose literal text is
// nothing but boilerplate simply carries no fingerprint).
var commonGrams = map[uint64]bool{}

func init() {
	for _, g := range []string{
		"http", "ttps", "ttp:", "tps:", "tp:/", "ps:/", "p://", "s://", "://w",
		"//ww", "www.", ".com", "com/", ".net", "net/", ".org", "org/",
		".js/", "/js/", ".php", "html", ".htm",
	} {
		if len(g) == fpGram {
			commonGrams[fnv64(g)] = true
		}
	}
}

// gramScore rates how selective a 4-gram is as a fingerprint: digits,
// dashes and other low-frequency URL bytes score high, blacklisted
// boilerplate grams score zero.
func gramScore(gram string, h uint64) int {
	if commonGrams[h] {
		return 0
	}
	score := 1
	for i := 0; i < len(gram); i++ {
		switch c := gram[i]; {
		case c >= '0' && c <= '9':
			score += 3
		case c == '-' || c == '_' || c == '%' || c == '=' || c == ',':
			score += 2
		}
	}
	return score
}

// patternFingerprint picks two rare 4-grams from the pattern's literal
// text and returns their bloom positions. Candidate grams come only from
// '^'-free spans of the (lowered) segments: bytes a matching URL must
// contain contiguously, so requiring their bloom bits is sound even for
// $match-case filters (ASCII lowering is monotone). Regex patterns have
// no literal segments and return ok=false, as do patterns whose spans are
// all shorter than 4 bytes.
func patternFingerprint(p *pattern) (a, b uint8, ok bool) {
	if p.re != nil {
		return 0, 0, false
	}
	var bestScore, secondScore int
	var bestBit, secondBit uint8
	for _, seg := range p.segments {
		if p.matchCase {
			seg = strings.ToLower(seg)
		}
		for len(seg) > 0 {
			span := seg
			if i := strings.IndexByte(seg, '^'); i >= 0 {
				span, seg = seg[:i], seg[i+1:]
			} else {
				seg = ""
			}
			for i := 0; i+fpGram <= len(span); i++ {
				gram := span[i : i+fpGram]
				h := fnv64(gram)
				s := gramScore(gram, h)
				if s == 0 && bestScore > 0 {
					continue
				}
				bit := uint8(h & 0xFF)
				switch {
				case s > bestScore:
					if bestBit != bit || bestScore == 0 {
						secondScore, secondBit = bestScore, bestBit
					}
					bestScore, bestBit = s, bit
				case s > secondScore && bit != bestBit:
					secondScore, secondBit = s, bit
				}
			}
		}
	}
	if bestScore == 0 {
		return 0, 0, false
	}
	if secondScore == 0 {
		secondBit = bestBit
	}
	return bestBit, secondBit, true
}

// urlFingerprint sets the bloom bit of every 4-byte window of the lowered
// URL — the request side of the fingerprint gate, computed once per
// request with the rest of the index side.
func urlFingerprint(fp *[4]uint64, lower string) {
	for i := 0; i+fpGram <= len(lower); i++ {
		h := uint64(fnvOffset64)
		h = (h ^ uint64(lower[i])) * fnvPrime64
		h = (h ^ uint64(lower[i+1])) * fnvPrime64
		h = (h ^ uint64(lower[i+2])) * fnvPrime64
		h = (h ^ uint64(lower[i+3])) * fnvPrime64
		bit := h & 0xFF
		fp[bit>>6] |= 1 << (bit & 63)
	}
}

// docDomainBloom computes the request side of the $domain= gate: the OR
// of the bitmap bits of every dot-suffix of the normalized document host.
// A filter's positive $domain= entry applies exactly when it equals one
// of those suffixes, so bitmap overlap is a necessary condition. An empty
// host keeps the whole field set (the gate stays open; AppliesToDomain
// decides). The normalization (trim, drop one trailing dot, ASCII-lower)
// mirrors domainutil.Normalize byte for byte without allocating.
func docDomainBloom(docHost string) uint64 {
	start, end := 0, len(docHost)
	for start < end && (docHost[start] == ' ' || docHost[start] == '\t') {
		start++
	}
	for end > start && (docHost[end-1] == ' ' || docHost[end-1] == '\t') {
		end--
	}
	if end > start && docHost[end-1] == '.' {
		end--
	}
	if start >= end {
		return gateDomainMask
	}
	var bits uint64
	for s := start; s < end; s++ {
		if s > start && docHost[s-1] != '.' {
			continue
		}
		h := uint64(fnvOffset64)
		for i := s; i < end; i++ {
			c := docHost[i]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			h = (h ^ uint64(c)) * fnvPrime64
		}
		bits |= 1 << (gateDomainShift + h%gateDomainBits)
	}
	return bits
}

// trieHostKey reports the host under which a '||'-anchored filter can be
// filed in the reversed-domain host index, or "" when it must stay in the
// keyword buckets. A filter qualifies only when its pattern host is
// necessarily a complete dot-suffix of the request host at a '||'
// boundary: the host must be followed in the pattern by '^' or '/'
// (either forces a separator right after the host in any matching URL),
// or the pattern must be exactly the host with an end anchor. A bare
// "||ads.net" (no separator after the host) can prefix-match a longer
// host like "ads.netfoo.com" and is not keyable.
func trieHostKey(f *filter.Filter) string {
	if !f.AnchorDomain || f.IsRegex {
		return ""
	}
	host := f.PatternHost()
	if host == "" {
		return ""
	}
	rest := f.Pattern[len(host):]
	if rest == "" {
		if f.AnchorEnd {
			return host
		}
		return ""
	}
	if rest[0] == '^' || rest[0] == '/' {
		return host
	}
	return ""
}

// appendHostKeys derives the request's host-index probe keys: for each
// '||' boundary position, the span of the lowered URL up to the next
// separator byte. These are exactly the host suffixes a trie-keyed
// filter's pattern host can equal at that boundary — stopping at any
// separator (not just the host end) keeps userinfo URLs like
// "http://a.com@evil.com/" sound, where '^' can match the '@' mid-host.
func appendHostKeys(dst []string, lower string, bounds []int) []string {
	for _, b := range bounds {
		e := b
		for e < len(lower) && !isSeparator(lower[e]) {
			e++
		}
		if e > b {
			dst = append(dst, lower[b:e])
		}
	}
	return dst
}
