package engine

import (
	"fmt"
	"sort"

	"acceptableads/internal/htmldom"
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

// addProfile registers a profile over already-loaded lists.
func (e *Engine) addProfile(name string, lists ...string) error {
	if name == "" {
		return fmt.Errorf("engine: profile name must be non-empty")
	}
	if len(lists) == 0 {
		return fmt.Errorf("engine: profile %q includes no lists", name)
	}
	if e.profiles == nil {
		e.profiles = make(map[string]uint64)
	}
	if _, dup := e.profiles[name]; dup {
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
	e.profiles[name] = mask
	return nil
}

// Profiles returns the names of the registered profiles, sorted. A built
// engine always includes DefaultProfile.
func (e *Engine) Profiles() []string {
	out := make([]string, 0, len(e.profiles))
	for name := range e.profiles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ProfileLists returns the list names a profile includes, in load order,
// or nil for an unknown profile.
func (e *Engine) ProfileLists(name string) []string {
	mask, ok := e.profiles[name]
	if !ok {
		return nil
	}
	var out []string
	for _, l := range e.lists {
		if e.listBits[l]&mask != 0 {
			out = append(out, l)
		}
	}
	return out
}

// View is an immutable, allocation-free restriction of an Engine to one
// profile's lists. It shares the engine's compiled indexes, attribution
// slots and quarantine state; only the membership mask differs. Views are
// cheap value-sized handles — create them per request or keep them
// around, both are fine.
type View struct {
	e    *Engine
	mask uint64
	name string
}

// View returns the named profile's view. The error names the valid
// profile set, so serving layers can surface it verbatim. On a built
// engine the view comes out of a per-profile cache — resolving a profile
// on the serving hot path is a map read, zero allocations.
func (e *Engine) View(name string) (*View, error) {
	if name == "" {
		name = DefaultProfile
	}
	if v, ok := e.views[name]; ok {
		return v, nil
	}
	mask, ok := e.profiles[name]
	if !ok {
		return nil, fmt.Errorf("unknown profile %q (valid: %v)", name, e.Profiles())
	}
	return &View{e: e, mask: mask, name: name}, nil
}

// Name returns the profile name the view serves.
func (v *View) Name() string { return v.name }

// Engine returns the shared underlying engine.
func (v *View) Engine() *Engine { return v.e }

// Lists returns the list names the view's profile includes, in load order.
func (v *View) Lists() []string { return v.e.ProfileLists(v.name) }

// NewSession creates a matching session restricted to the view's profile.
// rec may be nil for an unrecorded session.
func (v *View) NewSession(rec Recorder) *Session {
	return &Session{e: v.e, rec: rec, mask: v.mask}
}

// MatchRequest decides a request under the view's profile. Semantics and
// options are identical to Engine.MatchRequest; only the candidate set
// differs. The short-circuit path on an already-derived request stays zero
// allocations — the view adds one AND per candidate.
func (v *View) MatchRequest(req *Request, opts ...MatchOption) Decision {
	return (&Session{e: v.e, rec: v.e.recorder, mask: v.mask}).MatchRequest(req, opts...)
}

// PagePermissions evaluates page-level allowances under the view's
// profile.
func (v *View) PagePermissions(pageURL, sitekey string) PageFlags {
	return (&Session{e: v.e, rec: v.e.recorder, mask: v.mask}).PagePermissions(pageURL, sitekey)
}

// HideElements applies element hiding under the view's profile.
func (v *View) HideElements(doc *htmldom.Node, pageURL, docHost string, opts ...MatchOption) []ElementMatch {
	return (&Session{e: v.e, rec: v.e.recorder, mask: v.mask}).HideElements(doc, pageURL, docHost, opts...)
}

// ElemHideCSS builds the injectable stylesheet under the view's profile.
func (v *View) ElemHideCSS(docHost string) string {
	return v.e.elemHideCSS(docHost, v.mask)
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
