package engine

import (
	"time"

	"acceptableads/internal/domainutil"
	"acceptableads/internal/filter"
	"acceptableads/internal/htmldom"
)

// Session is a concurrency-safe view of an Engine: the engine's compiled
// indexes are immutable after construction, so any number of sessions can
// match in parallel, each recording activations to its own Recorder. The
// site survey runs one session per crawl worker.
//
// Engine's own MatchRequest/HideElements/PagePermissions methods remain as
// the single-threaded convenience API (they use the engine-level recorder
// installed with SetRecorder).
type Session struct {
	e   *Engine
	rec Recorder
	// mask is the profile's list-membership bitmask: only filters whose
	// list bit intersects it participate. A session on the flat engine
	// carries the all-lists mask, so the gate never skips there.
	mask uint64
}

// NewSession creates an independent matching session over the full
// engine (every loaded list). rec may be nil for an unrecorded session;
// View.NewSession creates a session restricted to a profile.
func (e *Engine) NewSession(rec Recorder) *Session {
	return &Session{e: e, rec: rec, mask: e.allMask}
}

func (s *Session) record(a Activation) {
	if m := s.e.metrics; m != nil {
		if c := m.activations[a.List]; c != nil {
			c.Inc()
		}
	}
	if s.rec != nil {
		s.rec.Record(a)
	}
}

// MatchRequest is the consolidated decision entry point. The default is
// the instrumented evaluation, recording the effective filter to the
// session's recorder; WithShortCircuit and WithLinearScan select the
// production and the ablation evaluation orders. See Engine.MatchRequest
// for the semantics.
//
// The first evaluation of a request derives its index side (one
// allocation); every later one on that request performs zero heap
// allocations: the keyword hashes, domain boundaries, lowered URL, and
// third-party bit come from the derived block, the unified index resolves
// blocking and exception in one probe pass, and the Decision embeds its
// matches by value. TestMatchRequestZeroAlloc pins the property.
func (s *Session) MatchRequest(req *Request, opts ...MatchOption) Decision {
	var bits uint8
	var tr *Trail
	for _, o := range opts {
		bits |= o.bits
		if o.trail != nil {
			tr = o.trail
		}
	}
	if tr != nil {
		tr.reset(trailMode(bits), bits&optShortCircuit != 0)
		tr.lists = s.e.lists
	}
	ix := req.index(s.e.metrics)
	if tr != nil {
		tr.KeywordHashes = len(ix.kwh)
		tr.HostKeys = len(ix.hostKeys)
	}
	idx := s.e.index

	var d Decision
	if bits&optLinear != 0 {
		// Index-free ablation: scan every filter on both sides. Records
		// no activations and no attribution. Combined with
		// WithShortCircuit it keeps production evaluation order, just
		// without the index.
		if bits&optShortCircuit != 0 {
			c := idx.findLinear(req, roleBlocking, s.mask, tr)
			if c == nil {
				return finishTrail(tr, &d, nil, nil)
			}
			d.blocked = Match{Filter: c.f, List: s.e.listOf(c.listBit)}
			if x := idx.findLinear(req, roleException, s.mask, tr); x != nil {
				d.allowed = Match{Filter: x.f, List: s.e.listOf(x.listBit)}
				d.Verdict = Allowed
				return finishTrail(tr, &d, c, x)
			}
			d.Verdict = Blocked
			return finishTrail(tr, &d, c, nil)
		}
		c := idx.findLinear(req, roleBlocking, s.mask, tr)
		x := idx.findLinear(req, roleException, s.mask, tr)
		if c != nil {
			d.blocked = Match{Filter: c.f, List: s.e.listOf(c.listBit)}
		}
		if x != nil {
			d.allowed = Match{Filter: x.f, List: s.e.listOf(x.listBit)}
		}
		switch {
		case d.allowed.Filter != nil:
			d.Verdict = Allowed
		case d.blocked.Filter != nil:
			d.Verdict = Blocked
		}
		return finishTrail(tr, &d, c, x)
	}
	if bits&optShortCircuit != 0 {
		// Production order: the exception side only decides anything
		// after a blocking filter matches. One resolve pass finds the
		// minimum-id match of both roles across the keyword buckets, the
		// host index and the slow bucket; the packed words kill almost
		// every candidate before its gates run. The effective filter's
		// attribution slot is bumped — one indexed atomic add, no
		// allocation.
		var res [numRoles]*compiledRequest
		idx.resolve(req, ix, maskBlocking|maskException, s.mask, &res, tr)
		c := res[roleBlocking]
		if c == nil {
			return finishTrail(tr, &d, nil, nil)
		}
		d.blocked = Match{Filter: c.f, List: s.e.listOf(c.listBit)}
		if x := res[roleException]; x != nil {
			d.allowed = Match{Filter: x.f, List: s.e.listOf(x.listBit)}
			d.Verdict = Allowed
			s.e.hit(x.id)
			return finishTrail(tr, &d, c, x)
		}
		d.Verdict = Blocked
		s.e.hit(c.id)
		return finishTrail(tr, &d, c, nil)
	}

	// Instrumented mode: both sides always evaluated, DNT signalling
	// resolved, effective filter recorded and attributed, metrics
	// observed.
	m := s.e.metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	want := maskBlocking | maskException
	if idx.hasDNT() {
		want |= maskDNT | maskDNTException
	}
	var res [numRoles]*compiledRequest
	idx.resolve(req, ix, want, s.mask, &res, tr)
	if c := res[roleBlocking]; c != nil {
		d.blocked = Match{Filter: c.f, List: s.e.listOf(c.listBit)}
	}
	if c := res[roleException]; c != nil {
		d.allowed = Match{Filter: c.f, List: s.e.listOf(c.listBit)}
	}
	switch {
	case d.allowed.Filter != nil:
		d.Verdict = Allowed
		s.e.hit(res[roleException].id)
		s.record(Activation{Filter: d.allowed.Filter, List: d.allowed.List,
			Kind: ActRequest, URL: req.URL, PageHost: req.DocumentHost})
	case d.blocked.Filter != nil:
		d.Verdict = Blocked
		s.e.hit(res[roleBlocking].id)
		s.record(Activation{Filter: d.blocked.Filter, List: d.blocked.List,
			Kind: ActRequest, URL: req.URL, PageHost: req.DocumentHost})
	}
	// $donottrack signalling (Appendix A.4): a matching DNT filter with
	// no matching DNT exception asks for the header; it never blocks.
	if dnt := res[roleDNT]; dnt != nil && res[roleDNTException] == nil {
		d.DoNotTrack = true
		s.e.hit(dnt.id)
	}
	if m != nil {
		m.attempts.Inc()
		m.verdict(d.Verdict)
		m.latency.Observe(time.Since(start))
	}
	return finishTrail(tr, &d, res[roleBlocking], res[roleException])
}

// trailMode names the evaluation order an option set selects.
func trailMode(bits uint8) string {
	switch {
	case bits&optLinear != 0 && bits&optShortCircuit != 0:
		return "short-circuit+linear"
	case bits&optLinear != 0:
		return "instrumented+linear"
	case bits&optShortCircuit != 0:
		return "short-circuit"
	default:
		return "instrumented"
	}
}

// finishTrail stamps the outcome onto a non-nil trail and passes the
// decision through, keeping the match paths' early returns one-liners.
func finishTrail(tr *Trail, d *Decision, block, exc *compiledRequest) Decision {
	if tr != nil {
		tr.finish(d, block, exc)
	}
	return *d
}

// PagePermissions evaluates page-level allowances, recording to the
// session. See Engine.PagePermissions. The index side is derived once per
// call and shared by both the $document and the $elemhide probe (the Type
// flip does not invalidate it — it keys on URL and document host only).
func (s *Session) PagePermissions(pageURL, sitekeyB64 string) PageFlags {
	req, err := NewRequest(pageURL, pageURL, filter.TypeDocument)
	if err != nil {
		// Unparseable page URL: fall back to a best-effort literal
		// request, as the pre-validation engine did.
		req = &Request{URL: pageURL, Type: filter.TypeDocument,
			DocumentHost: domainutil.HostOf(pageURL)}
	}
	req.Sitekey = sitekeyB64
	ix := req.index(s.e.metrics)
	idx := s.e.index

	var flags PageFlags
	probe := func(t filter.ContentType) *compiledRequest {
		req.Type = t
		var res [numRoles]*compiledRequest
		idx.resolve(req, ix, maskException, s.mask, &res, nil)
		return res[roleException]
	}
	if c := probe(filter.TypeDocument); c != nil {
		flags.DocumentAllowed = true
		flags.DocumentBy = &Match{Filter: c.f, List: s.e.listOf(c.listBit)}
		s.e.hit(c.id)
		s.record(Activation{Filter: c.f, List: s.e.listOf(c.listBit), Kind: ActDocument,
			URL: pageURL, PageHost: req.DocumentHost})
	}
	if c := probe(filter.TypeElemHide); c != nil {
		flags.ElemHideDisabled = true
		flags.ElemHideBy = &Match{Filter: c.f, List: s.e.listOf(c.listBit)}
		s.e.hit(c.id)
		s.record(Activation{Filter: c.f, List: s.e.listOf(c.listBit), Kind: ActDocument,
			URL: pageURL, PageHost: req.DocumentHost})
	}
	return flags
}

// HideElements applies element hiding, recording to the session. See
// Engine.HideElements. WithLinearScan evaluates every hiding selector
// against the document instead of the id/class candidate index.
func (s *Session) HideElements(doc *htmldom.Node, pageURL, docHost string, opts ...MatchOption) []ElementMatch {
	var bits uint8
	for _, o := range opts {
		bits |= o.bits
	}
	candidates := s.e.allHideCandidates(s.mask)
	if bits&optLinear == 0 {
		candidates = s.e.elemHideCandidates(doc, s.mask)
	}
	return s.applyElemHide(candidates, doc, pageURL, docHost)
}

func (s *Session) applyElemHide(candidates []*compiledElem, doc *htmldom.Node, pageURL, docHost string) []ElementMatch {
	var out []ElementMatch
	for _, c := range candidates {
		if !c.f.AppliesToDomain(docHost) {
			continue
		}
		nodes := c.sel.MatchAll(doc)
		if len(nodes) == 0 {
			continue
		}
		exc := s.e.findElemException(c.f.Selector, docHost, s.mask)
		for _, n := range nodes {
			m := ElementMatch{Node: n, HiddenBy: Match{Filter: c.f, List: s.e.listOf(c.listBit)}}
			if exc != nil {
				m.AllowedBy = &Match{Filter: exc.f, List: s.e.listOf(exc.listBit)}
			}
			out = append(out, m)
			s.e.hit(c.id)
			s.record(Activation{Filter: c.f, List: s.e.listOf(c.listBit), Kind: ActElement,
				URL: pageURL, PageHost: docHost})
			if exc != nil {
				s.e.hit(exc.id)
				s.record(Activation{Filter: exc.f, List: s.e.listOf(exc.listBit), Kind: ActElement,
					URL: pageURL, PageHost: docHost})
			}
		}
	}
	return out
}
