package engine

import (
	"acceptableads/internal/css"
	"acceptableads/internal/filter"
	"acceptableads/internal/htmldom"
)

// compiledElem is one element hiding filter (or exception) with its
// compiled selector.
type compiledElem struct {
	f   *filter.Filter
	sel *css.Selector
	// id is the filter's dense attribution slot in Engine.hits; line is
	// its 1-based position in the source list's text.
	id   uint32
	line int32
	// listBit is the source list's membership bit; profile views gate
	// hiding filters and exceptions on it exactly like request filters.
	listBit uint64
}

// elemHideIndex holds hiding filters indexed by the id/class their subject
// compound requires, with a slow bucket for selectors needing a full scan,
// plus hiding exceptions keyed by selector text (Adblock Plus cancels a
// hiding rule when an exception with the identical selector applies on the
// page's domain).
type elemHideIndex struct {
	byKey      map[css.IndexKey][]*compiledElem // required id/class → filters
	slow       []*compiledElem
	all        []*compiledElem            // linear view for the ablation
	exceptions map[string][]*compiledElem // selector text → exceptions
}

func newElemHideIndex() *elemHideIndex {
	return &elemHideIndex{
		byKey:      make(map[css.IndexKey][]*compiledElem),
		exceptions: make(map[string][]*compiledElem),
	}
}

// addCompiled files a hiding filter whose selector was already compiled
// (compilation is hoisted into compileFilters so it can parallelize) and
// whose compiledElem cell already lives in a list arena.
func (idx *elemHideIndex) addCompiled(c *compiledElem) {
	if c.f.Kind == filter.KindElemHideException {
		idx.exceptions[c.f.Selector] = append(idx.exceptions[c.f.Selector], c)
		return
	}
	idx.all = append(idx.all, c)
	if key, ok := c.sel.IndexKey(); ok {
		idx.byKey[key] = append(idx.byKey[key], c)
	} else {
		idx.slow = append(idx.slow, c)
	}
}

// install bulk-loads a decoded slab of compiled cells, the decode-path
// replacement for per-filter addCompiled calls: both maps are built at
// final size and the per-key fan-out slices are carved from one shared
// slab, so a snapshot load costs a handful of allocations instead of one
// map-growth-and-append per filter. Keys that repeat (rare) fall back to
// an ordinary append; the orphaned slab cell is the accepted waste.
func (idx *elemHideIndex) install(elems []compiledElem) {
	nExc := 0
	for i := range elems {
		if elems[i].f.Kind == filter.KindElemHideException {
			nExc++
		}
	}
	nHide := len(elems) - nExc
	idx.byKey = make(map[css.IndexKey][]*compiledElem, nHide)
	idx.exceptions = make(map[string][]*compiledElem, nExc)
	idx.all = make([]*compiledElem, 0, nHide)
	slab := make([]*compiledElem, 0, len(elems))
	single := func(c *compiledElem) []*compiledElem {
		slab = append(slab, c)
		return slab[len(slab)-1 : len(slab) : len(slab)]
	}
	for i := range elems {
		c := &elems[i]
		if c.f.Kind == filter.KindElemHideException {
			if prev, ok := idx.exceptions[c.f.Selector]; ok {
				idx.exceptions[c.f.Selector] = append(prev, c)
			} else {
				idx.exceptions[c.f.Selector] = single(c)
			}
			continue
		}
		idx.all = append(idx.all, c)
		if key, ok := c.sel.IndexKey(); ok {
			if prev, ok := idx.byKey[key]; ok {
				idx.byKey[key] = append(prev, c)
			} else {
				idx.byKey[key] = single(c)
			}
		} else {
			idx.slow = append(idx.slow, c)
		}
	}
}

// ElementMatch is one element hiding decision: a node a hiding filter
// selected, and — when an exception cancelled the hide — the exception.
type ElementMatch struct {
	Node *htmldom.Node
	// HiddenBy is the hiding filter whose selector matched.
	HiddenBy Match
	// AllowedBy is the cancelling exception, nil if the node stays
	// hidden.
	AllowedBy *Match
}

// Hidden reports whether the element ends up hidden.
func (m *ElementMatch) Hidden() bool { return m.AllowedBy == nil }

// HideElements applies element hiding to a parsed document served from
// docHost. It returns every hiding decision in document order and records
// activations: one ActElement per hidden node, and one per exception
// cancellation (the whitelist activations the survey counts, such as
// reddit.com#@##ad_main).
//
// Callers must consult PagePermissions first: when ElemHideDisabled or
// DocumentAllowed is set, Adblock Plus skips element hiding entirely.
//
// WithLinearScan evaluates every hiding selector against the document
// instead of consulting the id/class candidate index — the ablation
// baseline quantifying what the index buys.
func (e *Engine) HideElements(doc *htmldom.Node, pageURL, docHost string, opts ...MatchOption) []ElementMatch {
	return e.views[DefaultProfile].HideElements(doc, pageURL, docHost, opts...)
}

// HideElements applies element hiding under the view's profile, recording
// to the view. See Engine.HideElements.
func (v *View) HideElements(doc *htmldom.Node, pageURL, docHost string, opts ...MatchOption) []ElementMatch {
	var bits uint8
	for _, o := range opts {
		bits |= o.bits
	}
	e := v.e
	candidates := e.allHideCandidates(v.mask)
	if bits&optLinear == 0 {
		candidates = e.elemHideCandidates(doc, v.mask)
	}
	var out []ElementMatch
	for _, c := range candidates {
		if !c.f.AppliesToDomain(docHost) {
			continue
		}
		nodes := c.sel.MatchAll(doc)
		if len(nodes) == 0 {
			continue
		}
		exc := e.findElemException(c.f.Selector, docHost, v.mask)
		for _, n := range nodes {
			m := ElementMatch{Node: n, HiddenBy: Match{Filter: c.f, List: e.listOf(c.listBit)}}
			if exc != nil {
				m.AllowedBy = &Match{Filter: exc.f, List: e.listOf(exc.listBit)}
			}
			out = append(out, m)
			e.hit(c.id)
			v.record(Activation{Filter: c.f, List: e.listOf(c.listBit), Kind: ActElement,
				URL: pageURL, PageHost: docHost})
			if exc != nil {
				e.hit(exc.id)
				v.record(Activation{Filter: exc.f, List: e.listOf(exc.listBit), Kind: ActElement,
					URL: pageURL, PageHost: docHost})
			}
		}
	}
	return out
}

// elemHideCandidates gathers the hiding filters whose indexed id/class is
// present in the document, plus the slow bucket, restricted to the
// profile mask.
func (e *Engine) elemHideCandidates(doc *htmldom.Node, mask uint64) []*compiledElem {
	idx := e.elemHide
	seen := make(map[*compiledElem]bool)
	var out []*compiledElem
	doc.Walk(func(n *htmldom.Node) bool {
		if !n.IsElement() {
			return true
		}
		if id := n.ID(); id != "" {
			for _, c := range idx.byKey[css.IndexKey{Kind: '#', Name: id}] {
				if c.listBit&mask != 0 && !seen[c] {
					seen[c] = true
					out = append(out, c)
				}
			}
		}
		for _, cl := range n.Classes() {
			for _, c := range idx.byKey[css.IndexKey{Kind: '.', Name: cl}] {
				if c.listBit&mask != 0 && !seen[c] {
					seen[c] = true
					out = append(out, c)
				}
			}
		}
		return true
	})
	for _, c := range idx.slow {
		if c.listBit&mask != 0 {
			out = append(out, c)
		}
	}
	return out
}

// allHideCandidates is the linear-scan candidate set under a profile
// mask; the full mask returns the shared slice without copying.
func (e *Engine) allHideCandidates(mask uint64) []*compiledElem {
	if mask == e.allMask {
		return e.elemHide.all
	}
	var out []*compiledElem
	for _, c := range e.elemHide.all {
		if c.listBit&mask != 0 {
			out = append(out, c)
		}
	}
	return out
}

// findElemException returns the first in-profile hiding exception with
// the identical selector applying on docHost. An exception from a list
// outside the profile must not cancel hides, so the mask gates here too.
func (e *Engine) findElemException(selector, docHost string, mask uint64) *compiledElem {
	for _, x := range e.elemHide.exceptions[selector] {
		if x.listBit&mask == 0 {
			continue
		}
		if x.f.AppliesToDomain(docHost) {
			return x
		}
	}
	return nil
}
