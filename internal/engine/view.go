package engine

import (
	"fmt"
	"sort"
	"time"

	"acceptableads/internal/domainutil"
	"acceptableads/internal/filter"
)

// Profiles: named subsets of the loaded lists served from one compiled
// filter universe. Every compiled filter carries the membership bit of
// its source list; a profile is a bitmask over those bits and a View is
// the engine restricted to that mask. Matching through a view adds one
// AND per candidate inside the existing index loops — no per-profile
// recompile, no copied indexes — so a reload of the shared universe
// updates every profile atomically, and quarantining a filter disables
// it in every view at once.
//
// This is the paper's core experiment as a serving primitive: the
// EasyList-vs-EasyList+AA comparison (Walls et al., IMC'15 §4–5) becomes
// two views over one engine, and Diff answers "which exception unblocked
// this request" in a single index pass.

// DefaultProfile is the always-present profile spanning every loaded
// list; Engine.View(DefaultProfile) is equivalent to the flat engine.
const DefaultProfile = "full"

// addProfile registers a profile over already-loaded lists. The profile
// table is the view table: each profile is its immutable *View, so
// resolving one on the serving hot path is a map read, zero allocations.
func (e *Engine) addProfile(name string, lists ...string) error {
	if name == "" {
		return fmt.Errorf("engine: profile name must be non-empty")
	}
	if len(lists) == 0 {
		return fmt.Errorf("engine: profile %q includes no lists", name)
	}
	if _, dup := e.views[name]; dup {
		return fmt.Errorf("engine: profile %q already defined", name)
	}
	var mask uint64
	for _, l := range lists {
		bit, ok := e.listBits[l]
		if !ok {
			return fmt.Errorf("engine: profile %q: unknown list %q (loaded: %v)", name, l, e.lists)
		}
		mask |= bit
	}
	e.setView(name, mask)
	return nil
}

// setView files the view of one profile.
func (e *Engine) setView(name string, mask uint64) {
	e.views[name] = &View{e: e, mask: mask, name: name}
}

// Profiles returns the names of the registered profiles, sorted. A built
// engine always includes DefaultProfile.
func (e *Engine) Profiles() []string {
	out := make([]string, 0, len(e.views))
	for name := range e.views {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ProfileLists returns the list names a profile includes, in load order,
// or nil for an unknown profile.
func (e *Engine) ProfileLists(name string) []string {
	v, ok := e.views[name]
	if !ok {
		return nil
	}
	var out []string
	for _, l := range e.lists {
		if e.listBits[l]&v.mask != 0 {
			out = append(out, l)
		}
	}
	return out
}

// View is an immutable, allocation-free restriction of an Engine to one
// profile's lists, and the type every match runs through. It shares the
// engine's compiled indexes, attribution slots and quarantine state; only
// the membership mask differs. The engine's compiled state is immutable
// after construction, so any number of goroutines may match through one
// view at once.
type View struct {
	e    *Engine
	mask uint64
	name string
	// rec receives the activations of this view's instrumented matches;
	// the views an engine hands out have none (see WithRecorder).
	rec Recorder
}

// View returns the named profile's view. The error names the valid
// profile set, so serving layers can surface it verbatim. Resolving a
// profile is a map read, zero allocations.
func (e *Engine) View(name string) (*View, error) {
	if name == "" {
		name = DefaultProfile
	}
	if v, ok := e.views[name]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("unknown profile %q (valid: %v)", name, e.Profiles())
}

// WithRecorder returns a copy of the view that records every activation
// of its matches to r (nil records nothing). The receiver is unchanged, so
// each concurrent caller — one per crawl worker in the site survey — can
// record to its own Recorder over one shared engine.
func (v *View) WithRecorder(r Recorder) *View {
	c := *v
	c.rec = r
	return &c
}

// Name returns the profile name the view serves.
func (v *View) Name() string { return v.name }

// Lists returns the list names the view's profile includes, in load order.
func (v *View) Lists() []string { return v.e.ProfileLists(v.name) }

func (v *View) record(a Activation) {
	if m := v.e.metrics; m != nil {
		if c := m.activations[a.List]; c != nil {
			c.Inc()
		}
	}
	if v.rec != nil {
		v.rec.Record(a)
	}
}

// MatchRequest decides a request under the view's profile. See
// Engine.MatchRequest for the semantics of the modes.
//
// Every mode runs the same core: one evaluation fills the first match of
// each role — a single resolve pass over the unified index, or the
// index-free linear scan — and one policy keyed on the mode turns it into
// the decision and its side effects. Short-circuit modes consult the
// exception side only after a blocking filter matched (the linear scan
// skips that side outright); linear modes attribute and record nothing;
// only the instrumented indexed mode signals DNT, records the effective
// filter and observes the engine.match metrics.
//
// The first evaluation of a request derives its index side (one
// allocation); every later one on that request performs zero heap
// allocations: the keyword hashes, domain boundaries, lowered URL, and
// third-party bit come from the derived block, the unified index resolves
// blocking and exception in one probe pass, and the Decision embeds its
// matches by value. TestMatchRequestZeroAlloc pins the property.
func (v *View) MatchRequest(req *Request, opts ...MatchOption) Decision {
	var bits uint8
	var tr *Trail
	for _, o := range opts {
		bits |= o.bits
		if o.trail != nil {
			tr = o.trail
		}
	}
	e := v.e
	short, linear := bits&optShortCircuit != 0, bits&optLinear != 0
	instrumented := !short && !linear
	if tr != nil {
		tr.reset(trailMode(bits), short)
		tr.lists = e.lists
	}
	m := e.metrics
	ix := req.index(m)
	if tr != nil {
		tr.KeywordHashes = len(ix.kwh)
		tr.HostKeys = len(ix.hostKeys)
	}
	var start time.Time
	if instrumented && m != nil {
		start = time.Now()
	}

	var res [numRoles]*compiledRequest
	if linear {
		res[roleBlocking] = e.index.findLinear(req, roleBlocking, v.mask, tr)
		if !short || res[roleBlocking] != nil {
			res[roleException] = e.index.findLinear(req, roleException, v.mask, tr)
		}
	} else {
		want := maskBlocking | maskException
		if instrumented && e.index.hasDNT() {
			want |= maskDNT | maskDNTException
		}
		e.index.resolve(req, ix, want, v.mask, &res, tr)
	}

	block, exc := res[roleBlocking], res[roleException]
	if short && block == nil {
		exc = nil
	}
	var d Decision
	if block != nil {
		d.blocked = Match{Filter: block.f, List: e.listOf(block.listBit)}
		d.Verdict = Blocked
	}
	effective := block
	if exc != nil {
		d.allowed = Match{Filter: exc.f, List: e.listOf(exc.listBit)}
		d.Verdict = Allowed
		effective = exc
	}
	if effective != nil && !linear {
		e.hit(effective.id)
		if instrumented {
			v.record(Activation{Filter: effective.f, List: e.listOf(effective.listBit),
				Kind: ActRequest, URL: req.URL, PageHost: req.DocumentHost})
		}
	}
	if instrumented {
		// $donottrack signalling (Appendix A.4): a matching DNT filter with
		// no matching DNT exception asks for the header; it never blocks.
		if dnt := res[roleDNT]; dnt != nil && res[roleDNTException] == nil {
			d.DoNotTrack = true
			e.hit(dnt.id)
		}
		if m != nil {
			m.attempts.Inc()
			m.verdict(d.Verdict)
			m.latency.Observe(time.Since(start))
		}
	}
	if tr != nil {
		tr.finish(&d, block, exc)
	}
	return d
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

// PagePermissions evaluates page-level allowances under the view's
// profile, recording each grant. See Engine.PagePermissions. The index
// side is derived once per call and shared by both the $document and the
// $elemhide probe (the Type flip does not invalidate it — it keys on URL
// and document host only).
func (v *View) PagePermissions(pageURL, sitekeyB64 string) PageFlags {
	req, err := NewRequest(pageURL, pageURL, filter.TypeDocument)
	if err != nil {
		// Unparseable page URL: fall back to a best-effort literal
		// request, as the pre-validation engine did.
		req = &Request{URL: pageURL, Type: filter.TypeDocument,
			DocumentHost: domainutil.HostOf(pageURL)}
	}
	req.Sitekey = sitekeyB64
	e := v.e
	ix := req.index(e.metrics)

	grant := func(t filter.ContentType) *Match {
		req.Type = t
		var res [numRoles]*compiledRequest
		e.index.resolve(req, ix, maskException, v.mask, &res, nil)
		c := res[roleException]
		if c == nil {
			return nil
		}
		e.hit(c.id)
		v.record(Activation{Filter: c.f, List: e.listOf(c.listBit), Kind: ActDocument,
			URL: pageURL, PageHost: req.DocumentHost})
		return &Match{Filter: c.f, List: e.listOf(c.listBit)}
	}
	var flags PageFlags
	flags.DocumentBy = grant(filter.TypeDocument)
	flags.DocumentAllowed = flags.DocumentBy != nil
	flags.ElemHideBy = grant(filter.TypeElemHide)
	flags.ElemHideDisabled = flags.ElemHideBy != nil
	return flags
}

// DiffSide is one profile's outcome of a differential evaluation: the
// verdict plus the winning filter of each side, named with source list
// and line like an explain trail.
type DiffSide struct {
	Profile   string      `json:"profile"`
	Verdict   string      `json:"verdict"`
	Block     *TrailMatch `json:"block,omitempty"`
	Exception *TrailMatch `json:"exception,omitempty"`
}

// DiffResult reports one request evaluated under two profiles in a
// single pass — the paper's blocked-by-EasyList-but-unblocked-by-AA
// measurement as a first-class engine answer.
type DiffResult struct {
	A DiffSide `json:"a"`
	B DiffSide `json:"b"`
	// Flipped reports whether the two verdicts differ.
	Flipped bool `json:"flipped"`
	// Responsible names the filter that causes the verdicts to differ:
	// the exception that unblocks one side (the interesting case — an AA
	// exception flipping blocked to allowed), or the blocking filter
	// present on only one side. Nil when the verdicts agree.
	Responsible *TrailMatch `json:"responsible,omitempty"`
}

// diffRoles are the roles a differential evaluation resolves; DNT is a
// signalling side channel, not a verdict, and is skipped.
var diffRoles = [2]role{roleBlocking, roleException}

// diffState is the two-sided minimum-id resolution a Diff runs: one
// best-id slot per (side, role), improved as the shared index structures
// are scanned. Each side converges on exactly the filter its own
// MatchRequest (minimum insertion id) would report.
type diffState struct {
	masks [2]uint64
	res   [2][numRoles]*compiledRequest
	best  [2][numRoles]uint32
}

// scanDiff walks one id-sorted packed segment, improving both sides'
// best-id slots for role r. Gates run at most once per candidate even
// when both profiles include its list; the scan stops once no side can
// improve.
func (ds *diffState) scanDiff(seg []packedEntry, r role, req *Request, ix *indexSide) {
	for i := range seg {
		e := &seg[i]
		if e.id >= ds.best[0][r] && e.id >= ds.best[1][r] {
			break
		}
		w0 := e.listBit&ds.masks[0] != 0 && e.id < ds.best[0][r]
		w1 := e.listBit&ds.masks[1] != 0 && e.id < ds.best[1][r]
		if !w0 && !w1 {
			continue
		}
		if !gatePass(e.word, req, ix) {
			continue
		}
		if !e.c.matches(req, ix) {
			continue
		}
		if w0 {
			ds.best[0][r] = e.id
			ds.res[0][r] = e.c
		}
		if w1 {
			ds.best[1][r] = e.id
			ds.res[1][r] = e.c
		}
	}
}

// Diff evaluates req under two profile views in one pass over the shared
// index: each candidate's gates run at most once even when both profiles
// include its list. Both sides use instrumented-mode semantics (blocking
// and exception always resolved) with minimum-insertion-id resolution,
// so each side's verdict and winning filters are identical to what
// MatchRequest reports for that view. The effective filter of each side
// gets its attribution bump, exactly as two separate matches would.
func (e *Engine) Diff(req *Request, a, b *View) DiffResult {
	ix := req.index(e.metrics)
	idx := e.index
	ds := diffState{masks: [2]uint64{a.mask, b.mask}}
	for s := range ds.best {
		for r := range ds.best[s] {
			ds.best[s][r] = ^uint32(0)
		}
	}
	scanBucketDiff := func(bk *bucket) {
		for _, r := range diffRoles {
			ds.scanDiff(bk.entries[bk.offs[r]:bk.offs[r+1]], r, req, ix)
		}
	}
	for _, h := range ix.kwh {
		if bk := idx.byHash[h]; bk != nil {
			scanBucketDiff(bk)
		}
	}
	if len(idx.byHost) > 0 {
		for _, key := range ix.hostKeys {
			if bk := idx.byHost[key]; bk != nil {
				scanBucketDiff(bk)
			}
		}
	}
	for _, r := range diffRoles {
		ds.scanDiff(idx.slow[r], r, req, ix)
	}

	out := DiffResult{
		A: diffSide(e, a.name, &ds.res[0]),
		B: diffSide(e, b.name, &ds.res[1]),
	}
	out.Flipped = out.A.Verdict != out.B.Verdict
	if out.Flipped {
		out.Responsible = responsibleFilter(&out.A, &out.B)
	}
	return out
}

// diffSide resolves one side's verdict from its first-match slots with
// instrumented-mode semantics and bumps the effective filter.
func diffSide(e *Engine, profile string, res *[numRoles]*compiledRequest) DiffSide {
	s := DiffSide{Profile: profile, Verdict: NoMatch.String()}
	if c := res[roleBlocking]; c != nil {
		s.Block = &TrailMatch{Filter: c.f.Raw, List: e.listOf(c.listBit), Line: int(c.line)}
	}
	if x := res[roleException]; x != nil {
		s.Exception = &TrailMatch{Filter: x.f.Raw, List: e.listOf(x.listBit), Line: int(x.line)}
		s.Verdict = Allowed.String()
		e.hit(res[roleException].id)
		return s
	}
	if res[roleBlocking] != nil {
		s.Verdict = Blocked.String()
		e.hit(res[roleBlocking].id)
	}
	return s
}

// responsibleFilter picks the filter explaining a verdict flip: the
// unblocking exception when one side allows, otherwise the one-sided
// blocking filter.
func responsibleFilter(a, b *DiffSide) *TrailMatch {
	allowed := Allowed.String()
	if a.Verdict == allowed && a.Exception != nil {
		return a.Exception
	}
	if b.Verdict == allowed && b.Exception != nil {
		return b.Exception
	}
	if a.Block != nil {
		return a.Block
	}
	return b.Block
}
