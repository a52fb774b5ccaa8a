package engine

// Decision provenance: an opt-in record of *why* a match decision came
// out the way it did — which keyword buckets were probed, which candidate
// filters ran their gates, which filter won, and whether evaluation
// short-circuited. The paper counts *that* filters fire; the explain
// trail shows *how* one firing happened, which is what the serving
// layer's /v1/explain endpoint returns.
//
// Explain is strictly opt-in: a MatchRequest without WithExplain touches
// none of this (the hot path stays allocation-free, pinned by
// TestMatchRequestZeroAlloc). A Trail is caller-owned and reusable — it
// is reset at the start of every explained match, so a long-lived caller
// pays the candidate-slice allocation once.

// trailMaxCandidates bounds the recorded candidate list so a pathological
// request against a huge bucket cannot balloon the trail; overflow is
// counted in TruncatedCandidates instead of recorded.
const trailMaxCandidates = 512

// TrailMatch names one filter on a trail: the raw filter text, the list
// it came from, and its 1-based line within that list's text.
type TrailMatch struct {
	Filter string `json:"filter"`
	List   string `json:"list"`
	Line   int    `json:"line"`
}

// TrailCandidate is one filter whose per-filter gates actually ran during
// an explained match, in evaluation order.
type TrailCandidate struct {
	TrailMatch
	// Role is the side the candidate was evaluated for: "block",
	// "exception", "dnt" or "dnt-exception".
	Role string `json:"role"`
	// Matched reports whether every gate (pattern, type, party, domain,
	// sitekey) passed.
	Matched bool `json:"matched"`
	// Slow marks a keyword-less filter from the always-probed slow bucket
	// (regex and too-short patterns); false means the candidate came out
	// of a keyword bucket.
	Slow bool `json:"slow,omitempty"`
}

// Trail is the full provenance record of one explained match. Pass it to
// MatchRequest via WithExplain; it is reset on entry and filled by the
// time MatchRequest returns.
type Trail struct {
	// Mode names the evaluation order that ran: "instrumented" (the
	// default, both sides always consulted), "short-circuit" (production
	// order: exceptions only after a blocker matched), with a "+linear"
	// suffix when the keyword index was bypassed.
	Mode string `json:"mode"`
	// ShortCircuit reports whether evaluation stopped at the first
	// decisive filter instead of consulting both sides.
	ShortCircuit bool `json:"shortCircuit"`
	// KeywordHashes is how many memoized keyword-run hashes the request
	// carried into the index probe.
	KeywordHashes int `json:"keywordHashes"`
	// HostKeys is how many host-suffix probe keys the request carried
	// into the reversed-domain host index.
	HostKeys int `json:"hostKeys"`
	// BucketsProbed is how many of those hashes landed in a non-empty
	// index bucket.
	BucketsProbed int `json:"bucketsProbed"`
	// HostBucketsProbed is how many host keys landed in a non-empty
	// host-index bucket.
	HostBucketsProbed int `json:"hostBucketsProbed"`
	// SlowScanned counts keyword-less (slow-bucket) candidates gated.
	SlowScanned int `json:"slowScanned"`
	// GateRejected counts candidates killed by their packed pre-filter
	// word before any per-filter gate ran — the index-v2 pruning at work.
	GateRejected int `json:"gateRejected"`
	// Candidates lists every filter whose gates ran, in evaluation order,
	// capped at trailMaxCandidates.
	Candidates []TrailCandidate `json:"candidates"`
	// TruncatedCandidates counts candidates dropped past the cap.
	TruncatedCandidates int `json:"truncatedCandidates,omitempty"`

	// Verdict is the decision's outcome ("blocked", "allowed",
	// "no-match").
	Verdict string `json:"verdict"`
	// Block / Exception name the winning filters of each side, when one
	// matched.
	Block     *TrailMatch `json:"block,omitempty"`
	Exception *TrailMatch `json:"exception,omitempty"`
	// DoNotTrack mirrors the decision's DNT signal.
	DoNotTrack bool `json:"doNotTrack,omitempty"`

	// lists is the engine's list-name table, installed by MatchRequest on
	// reset; compiled filters carry only their list bit, and the trail
	// resolves it to a name at record time.
	lists []string
}

// reset clears the trail for reuse, keeping the candidate slice's
// capacity.
func (t *Trail) reset(mode string, short bool) {
	t.Mode = mode
	t.ShortCircuit = short
	t.KeywordHashes = 0
	t.HostKeys = 0
	t.BucketsProbed = 0
	t.HostBucketsProbed = 0
	t.SlowScanned = 0
	t.GateRejected = 0
	t.Candidates = t.Candidates[:0]
	t.TruncatedCandidates = 0
	t.Verdict = ""
	t.Block = nil
	t.Exception = nil
	t.DoNotTrack = false
}

// roleNames maps the index roles to their trail labels.
var roleNames = [numRoles]string{
	roleBlocking:     "block",
	roleException:    "exception",
	roleDNT:          "dnt",
	roleDNTException: "dnt-exception",
}

// candidate records one gated filter.
func (t *Trail) candidate(c *compiledRequest, r role, matched, slow bool) {
	if len(t.Candidates) >= trailMaxCandidates {
		t.TruncatedCandidates++
		return
	}
	t.Candidates = append(t.Candidates, TrailCandidate{
		TrailMatch: TrailMatch{Filter: c.f.Raw, List: listNameOf(t.lists, c.listBit), Line: int(c.line)},
		Role:       roleNames[r],
		Matched:    matched,
		Slow:       slow,
	})
}

// finish stamps the outcome onto the trail.
func (t *Trail) finish(d *Decision, block, exc *compiledRequest) {
	t.Verdict = d.Verdict.String()
	t.DoNotTrack = d.DoNotTrack
	if block != nil {
		t.Block = &TrailMatch{Filter: block.f.Raw, List: listNameOf(t.lists, block.listBit), Line: int(block.line)}
	}
	if exc != nil {
		t.Exception = &TrailMatch{Filter: exc.f.Raw, List: listNameOf(t.lists, exc.listBit), Line: int(exc.line)}
	}
}

// WithExplain records the full match trail — buckets probed, candidates
// gated, the winning filters with their source list and line, and the
// evaluation mode — into t, which is reset first. Explained matches may
// allocate (the trail grows); matches without it stay allocation-free. A
// nil t disables the option.
func WithExplain(t *Trail) MatchOption { return MatchOption{bits: optExplain, trail: t} }
