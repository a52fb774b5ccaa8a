// Package domainutil provides hostname normalization, registrable-domain
// (effective second-level domain) extraction, subdomain tests, and the
// third-party request test used throughout the Adblock Plus filter engine.
//
// Adblock Plus semantics depend on two different notions of "domain":
//
//   - Filter domain options (e.g. $domain=reddit.com) match the document
//     host and any of its subdomains.
//   - The $third-party option compares the registrable domains of the
//     request host and the document host: a request is third-party when the
//     two differ.
//
// The registrable domain ("eTLD+1") requires a public-suffix list. The real
// list has thousands of entries; we embed the subset that covers every
// suffix appearing in the paper's datasets (generic TLDs plus the
// country-code second-level suffixes used by Google's 919 country domains).
package domainutil

import "strings"

// multiLabelSuffixes holds public suffixes that consist of two labels, such
// as "co.uk". A hostname ending in one of these needs three labels to form a
// registrable domain. The set covers the country suffixes used by the
// whitelist's Google country domains (google.co.uk, google.com.au, ...) and
// other suffixes common in EasyList.
var multiLabelSuffixes = map[string]bool{
	"co.uk": true, "org.uk": true, "me.uk": true, "ltd.uk": true, "plc.uk": true,
	"ac.uk": true, "gov.uk": true, "net.uk": true, "sch.uk": true,
	"com.au": true, "net.au": true, "org.au": true, "edu.au": true, "gov.au": true,
	"com.br": true, "net.br": true, "org.br": true, "gov.br": true,
	"co.jp": true, "ne.jp": true, "or.jp": true, "ac.jp": true, "go.jp": true,
	"co.in": true, "net.in": true, "org.in": true, "gen.in": true, "firm.in": true,
	"com.cn": true, "net.cn": true, "org.cn": true, "gov.cn": true,
	"com.mx": true, "org.mx": true, "net.mx": true,
	"co.nz": true, "net.nz": true, "org.nz": true,
	"co.za": true, "net.za": true, "org.za": true,
	"com.ar": true, "com.tr": true, "com.tw": true, "com.hk": true,
	"com.sg": true, "com.my": true, "com.ph": true, "com.vn": true,
	"co.kr": true, "co.id": true, "co.th": true, "co.il": true,
	"com.co": true, "com.pe": true, "com.ec": true, "com.uy": true,
	"com.ua": true, "com.pk": true, "com.ng": true, "com.eg": true,
	"com.sa": true, "com.bd": true, "co.ve": true, "com.do": true,
	"co.cr": true, "com.gt": true, "com.py": true, "com.bo": true,
}

// Normalize lowercases a hostname and strips a trailing dot and surrounding
// whitespace. It performs no validation; an empty string normalizes to "".
func Normalize(host string) string {
	host = strings.TrimSpace(host)
	host = strings.TrimSuffix(host, ".")
	return strings.ToLower(host)
}

// Registrable returns the registrable domain ("effective second-level
// domain") of host: the public suffix plus one label. For example,
// maps.google.com yields google.com and www.google.co.uk yields google.co.uk.
// If host is itself a public suffix, or has a single label, host is returned
// unchanged. The input is normalized first; the result is a substring of
// the normalized host, so the call allocates only when Normalize does (a
// host with upper-case bytes).
func Registrable(host string) string {
	host = Normalize(host)
	last := strings.LastIndexByte(host, '.')
	if last < 0 {
		return host
	}
	second := strings.LastIndexByte(host[:last], '.')
	if second < 0 {
		return host
	}
	if !multiLabelSuffixes[host[second+1:]] {
		return host[second+1:]
	}
	// Two-label public suffix: the registrable domain needs a third label.
	third := strings.LastIndexByte(host[:second], '.')
	return host[third+1:]
}

// IsSubdomainOf reports whether host equals domain or is a subdomain of it.
// Both inputs are normalized. An empty domain matches nothing.
func IsSubdomainOf(host, domain string) bool {
	host = Normalize(host)
	domain = Normalize(domain)
	if domain == "" || host == "" {
		return false
	}
	if host == domain {
		return true
	}
	return strings.HasSuffix(host, "."+domain)
}

// IsThirdParty reports whether a request to requestHost from a document
// hosted on documentHost is a third-party request under Adblock Plus
// semantics: the two hosts have different registrable domains.
func IsThirdParty(requestHost, documentHost string) bool {
	return Registrable(requestHost) != Registrable(documentHost)
}

// Labels returns the dot-separated labels of a normalized hostname, from
// leftmost (most specific) to rightmost (TLD). An empty host yields nil.
func Labels(host string) []string {
	host = Normalize(host)
	if host == "" {
		return nil
	}
	return strings.Split(host, ".")
}

// HostOf extracts the hostname from a URL string without requiring a full
// parse. It handles scheme://host/path, scheme-relative //host/path, and
// bare host/path forms, strips userinfo, port, query and fragment, and
// normalizes the result. Malformed inputs yield a best-effort host or "".
func HostOf(rawurl string) string {
	s := rawurl
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	} else if strings.HasPrefix(s, "//") {
		s = s[2:]
	}
	// Strip path, query, fragment — whichever comes first.
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	// Strip userinfo.
	if i := strings.LastIndexByte(s, '@'); i >= 0 {
		s = s[i+1:]
	}
	// Strip port (not applicable to IPv6 literals, which the synthetic web
	// never produces).
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	return Normalize(s)
}
