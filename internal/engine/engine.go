package engine

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"acceptableads/internal/filter"
)

// Request carries everything Adblock Plus inspects when deciding the fate
// of one web request.
type Request struct {
	// URL is the full request URL.
	URL string
	// Type is the content type of the request (script, image, ...).
	Type filter.ContentType
	// DocumentHost is the host of the page issuing the request; it
	// drives $domain restrictions and the third-party test.
	DocumentHost string
	// Sitekey is the base64 public key whose signature the browser
	// verified for the current page, or "". Sitekey-restricted filters
	// only activate when this matches one of their keys.
	Sitekey string

	// Key side: the third-party bit, memoized on the URL and document
	// host it was computed for. With the exported fields above it is all
	// the decision cache reads. NewRequest fills it; see ThirdParty.
	third          bool
	keyURL, keyDoc string

	// Index side: what an index walk reads, derived at the first
	// evaluation and published as one immutable block; see index.
	ix atomic.Pointer[indexSide]
}

// MatchOption tunes one MatchRequest or HideElements call. The default
// (no options) is the instrumented evaluation the paper's survey uses:
// both filter sides are always consulted and the effective filter is
// recorded. Options are small by-value structs so resolving them on the
// hot path is a couple of ORs and a pointer copy — no closure calls,
// nothing escapes to the heap.
type MatchOption struct {
	bits  uint8
	trail *Trail
}

const (
	optShortCircuit uint8 = 1 << iota
	optLinear
	optExplain
)

// WithLinearScan bypasses the keyword index (request matching) and the
// id/class candidate index (element hiding), scanning every filter. It
// exists for the differential tests and the ablation benchmarks that
// quantify what the indexes buy; linear matching records no activations
// and no attribution. It composes with WithShortCircuit: both together
// give production-order evaluation without the index.
func WithLinearScan() MatchOption { return MatchOption{bits: optLinear} }

// WithShortCircuit selects the production evaluation order: the exception
// side is only consulted after a blocking filter matches, and nothing is
// recorded — the behaviour of a stock (non-instrumented) Adblock Plus,
// and the baseline for the instrumentation-overhead ablation. The
// per-filter attribution slot of the effective filter is still bumped
// (one atomic add; the path stays allocation-free).
func WithShortCircuit() MatchOption { return MatchOption{bits: optShortCircuit} }

// Verdict is the outcome of matching one request.
type Verdict uint8

const (
	// NoMatch means no filter applied; the request proceeds.
	NoMatch Verdict = iota
	// Blocked means a blocking filter matched with no overriding
	// exception; the request is cancelled.
	Blocked
	// Allowed means an exception filter matched, overriding any
	// blocking filters.
	Allowed
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Blocked:
		return "blocked"
	case Allowed:
		return "allowed"
	default:
		return "no-match"
	}
}

// Decision reports the matching filters behind a verdict. In instrumented
// mode both sides are populated when both matched — the paper's "needless"
// whitelist activations are exceptions that fire with no blocking filter.
//
// The matches are embedded by value so a decision costs zero heap
// allocations; BlockedBy/AllowedBy expose them as nil-able pointers for
// callers that want the old pointer-field ergonomics.
type Decision struct {
	Verdict Verdict
	// DoNotTrack asks the browser to send a DNT header on this request:
	// a $donottrack filter matched and no $donottrack exception did
	// (Appendix A.4). DNT filters never block; they only signal.
	DoNotTrack bool

	blocked Match
	allowed Match
}

// BlockedBy returns the blocking filter that matched, or nil when none
// did. The Match is embedded in the Decision by value; the returned
// pointer aliases the receiver.
func (d *Decision) BlockedBy() *Match {
	if d.blocked.Filter == nil {
		return nil
	}
	return &d.blocked
}

// AllowedBy returns the exception filter that matched, or nil when none
// did. The Match is embedded in the Decision by value; the returned
// pointer aliases the receiver.
func (d *Decision) AllowedBy() *Match {
	if d.allowed.Filter == nil {
		return nil
	}
	return &d.allowed
}

// Match pairs an activated filter with the list it came from.
type Match struct {
	Filter *filter.Filter
	List   string
}

// ActivationKind distinguishes what triggered a filter activation.
type ActivationKind uint8

const (
	// ActRequest is a request filter match.
	ActRequest ActivationKind = iota
	// ActElement is an element hiding (or hiding exception) match.
	ActElement
	// ActDocument is a whole-page $document/$elemhide/sitekey allowance.
	ActDocument
)

// Activation is one recorded filter firing — the unit the paper's site
// survey counts.
type Activation struct {
	Filter *filter.Filter
	List   string
	Kind   ActivationKind
	// URL is the matched request URL (request activations) or the page
	// URL (document activations); for element activations it is the
	// page URL.
	URL string
	// PageHost is the first-party host of the page being loaded.
	PageHost string
}

// Recorder receives every filter activation when instrumentation is on.
type Recorder interface {
	Record(Activation)
}

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(Activation)

// Record implements Recorder.
func (f RecorderFunc) Record(a Activation) { f(a) }

// compiledRequest is one request filter ready for matching.
type compiledRequest struct {
	f *filter.Filter
	// pat is inlined by value: the pattern's gates run on every candidate
	// the packed word lets through, so keeping them on the filter's own
	// cache lines beats a pointer chase, and a decoded engine carves one
	// request slab instead of a parallel pattern slab.
	pat pattern
	// id is the filter's dense attribution slot in Engine.hits; line is
	// its 1-based position in the source list's text.
	id   uint32
	line int32
	// listBit is the membership bit of the source list (bit i for the
	// i-th list added). A profile view is a bitmask over these: a filter
	// participates in a match exactly when listBit&mask != 0, which is
	// the one-AND gate the profile views add to every candidate loop.
	listBit uint64
	// state is the filter's poison-pill containment state (filterOK /
	// filterQuarantined / filterPoison); see quarantine.go. The same
	// *compiledRequest is shared between the hash buckets, the slow list
	// and the linear-scan view, so one atomic store disables the filter
	// on every path at once.
	state atomic.Uint32
}

// matches applies every per-filter gate: pattern, content type, party
// relation, domain restriction, and sitekey restriction, reading the
// request's index side (lowered URL, third-party bit, domain boundaries)
// — identical for every candidate filter, so it is derived once per
// request, not once per candidate.
func (c *compiledRequest) matches(req *Request, ix *indexSide) bool {
	// Containment gate: a quarantined filter is dead on every path (index,
	// slow bucket, linear scan) with one relaxed atomic load; a poisoned
	// one panics here — the chaos hook behind the serving layer's
	// panic-containment tests.
	if st := c.state.Load(); st != filterOK {
		if st == filterQuarantined {
			return false
		}
		panic("engine: poison filter " + c.f.Raw)
	}
	if c.f.TypeMask&req.Type == 0 {
		return false
	}
	if c.f.ThirdParty != filter.Unset {
		if c.f.ThirdParty == filter.Yes && !ix.third {
			return false
		}
		if c.f.ThirdParty == filter.No && ix.third {
			return false
		}
	}
	if !c.f.AppliesToDomain(req.DocumentHost) {
		return false
	}
	if len(c.f.Sitekeys) > 0 {
		ok := false
		for _, k := range c.f.Sitekeys {
			if k == req.Sitekey {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return c.pat.match(req.URL, ix.lower, ix.bounds)
}

// role tags a compiled request filter with the side it matches for. The
// four roles of the old per-role indexes (blocking, exceptions, DNT,
// DNT exceptions) share one unified index; entries carry their role so
// a single probe pass resolves all of them.
type role uint8

const (
	roleBlocking role = iota
	roleException
	roleDNT
	roleDNTException
	numRoles
)

// Role bit masks for unifiedIndex.probe's want set.
const (
	maskBlocking     = uint8(1) << roleBlocking
	maskException    = uint8(1) << roleException
	maskDNT          = uint8(1) << roleDNT
	maskDNTException = uint8(1) << roleDNTException
)

// packedEntry is one filter filed in an index bucket together with its
// packed pre-filter word (see gate.go) and the hot scalar fields the
// candidate loops need, so rejecting a candidate touches one 32-byte
// entry instead of chasing the compiledRequest pointer.
type packedEntry struct {
	word    uint64
	listBit uint64
	c       *compiledRequest
	// id is the filter's insertion (list load) order. Bucket segments are
	// sorted by it, which is what lets every probe structure early-exit
	// once a lower-id match is in hand.
	id uint32
}

// bucket is one keyword (or host) bucket, partitioned by role: entries
// are sorted by (role, insertion id) and offs[r]:offs[r+1] bounds role
// r's segment, so a probe touches only the roles it wants and each
// segment yields candidates in id order.
type bucket struct {
	offs    [numRoles + 1]uint32
	entries []packedEntry
}

// hostIndexMinBucket is the population threshold below which a host key
// is not worth a reversed-domain bucket. A real corpus has thousands of
// one-filter host keys (`||foo-net123.com^` bulk rules): filing each in
// byHost makes every request pay map probes per host-suffix span just to
// find singleton buckets, which measured *slower* than letting those
// filters ride their keyword buckets. Dense keys (a CDN host shared by
// hundreds of whitelist rules) are where the host index wins, so only
// keys with at least this many filters stay in byHost; the rest spill to
// their keyword bucket (or the slow path when keyword-less).
const hostIndexMinBucket = 4

// addRec is one entry of the index's ordered construction log. freeze()
// derives every probe structure from this log: routing a filter to the
// host index depends on the *global* population of its host key, which is
// only known once the whole corpus is filed.
type addRec struct {
	c       *compiledRequest
	word    uint64
	hostKey string
	r       role
}

// unifiedIndex is candidate-pruning index v2. Request filters of all four
// roles are filed in one of three structures:
//
//   - byHost: '||'-anchored filters whose pattern host is necessarily a
//     complete dot-suffix of the request host (see trieHostKey), keyed on
//     that host — the reversed-domain index, probed once per request by
//     walking the request host's suffix spans.
//   - byHash: everything else with an indexing keyword, keyed on the
//     FNV-1a hash of the keyword. Hashing instead of string keys means
//     the URL's keyword runs never materialize as substrings; a collision
//     only files unrelated filters in the same bucket.
//   - slow: keyword-less filters (regex and too-short patterns), gated on
//     every request — but by their packed words, so a non-matching slow
//     candidate costs integer compares, not a pattern scan.
//
// Matching resolves the minimum-insertion-id candidate per role across
// all three structures, which is exactly the filter a linear scan in list
// order reports — the property the differential tests assert, identity
// included.
type unifiedIndex struct {
	byHash map[uint64]*bucket
	byHost map[string]*bucket
	slow   [numRoles][]packedEntry
	// all is the per-role linear-scan view for the ablation (and the
	// quarantine sweeps — every compiled filter is reachable here).
	all [numRoles][]*compiledRequest

	// Arena backing for the probe maps: every bucket header lives in the
	// flat buckets slab and every bucket's role segments are windows of
	// the shared entries slab, so walking candidates streams one dense
	// array instead of hopping between per-bucket heap allocations.
	entries []packedEntry
	buckets []bucket

	// adds is the ordered construction log; freeze() derives the probe
	// structures from it (see addRec) and then drops it.
	adds []addRec
}

// add files one compiled filter into the construction log. hostKey
// nominates the filter for the reversed-domain index ("" means keyword
// bucket or slow path — freeze may still demote a sparse host key);
// word is the filter's packed pre-filter word.
func (idx *unifiedIndex) add(r role, c *compiledRequest, word uint64, hostKey string) {
	idx.all[r] = append(idx.all[r], c)
	idx.adds = append(idx.adds, addRec{c: c, word: word, hostKey: hostKey, r: r})
}

// freeze builds the role-partitioned probe structures from the
// construction log, once, after every list is filed, and releases the
// log. Host keys below hostIndexMinBucket spill to keyword buckets;
// everything is then flattened into the two shared slabs.
//
// The build is a counting sort: pass one resolves every insertion to its
// bucket slot and counts per-(bucket, role) populations, pass two places
// each packed entry straight into its final slab cell — no per-bucket
// accumulator slices, no copies, and the slabs are allocated at exactly
// their final size. Insertion happens in id order and the cursors only
// move forward, so each role segment comes out id-sorted as resolve
// requires.
func (idx *unifiedIndex) freeze() {
	nAdds := len(idx.adds)
	hostPop := make(map[string]int, nAdds/4+1)
	for i := range idx.adds {
		if k := idx.adds[i].hostKey; k != "" {
			hostPop[k]++
		}
	}
	// Pass one: slot resolution and population counts. slotOf remembers
	// each insertion's bucket so pass two never repeats a map lookup.
	hashSlot := make(map[uint64]int32, nAdds/2+1)
	hostSlot := make(map[string]int32, len(hostPop))
	slotOf := make([]int32, nAdds)
	counts := make([][numRoles]uint32, 0, nAdds/2+1)
	var slowCount [numRoles]int
	for i := range idx.adds {
		a := &idx.adds[i]
		var slot int32
		switch {
		case a.hostKey != "" && hostPop[a.hostKey] >= hostIndexMinBucket:
			s, ok := hostSlot[a.hostKey]
			if !ok {
				s = int32(len(counts))
				hostSlot[a.hostKey] = s
				counts = append(counts, [numRoles]uint32{})
			}
			slot = s
		case a.c.pat.hasKW:
			s, ok := hashSlot[a.c.pat.kwHash]
			if !ok {
				s = int32(len(counts))
				hashSlot[a.c.pat.kwHash] = s
				counts = append(counts, [numRoles]uint32{})
			}
			slot = s
		default:
			slowCount[a.r]++
			slotOf[i] = -1
			continue
		}
		counts[slot][a.r]++
		slotOf[i] = slot
	}
	// Lay the buckets out over the shared slabs: each bucket's role
	// offsets come from its population prefix sums, and counts[s] is
	// reused in place as the absolute placement cursors for pass two.
	bucketed := 0
	for s := range counts {
		for r := role(0); r < numRoles; r++ {
			bucketed += int(counts[s][r])
		}
	}
	idx.entries = make([]packedEntry, bucketed)
	idx.buckets = make([]bucket, len(counts))
	idx.byHash = make(map[uint64]*bucket, len(hashSlot))
	idx.byHost = make(map[string]*bucket, len(hostSlot))
	base := uint32(0)
	for s := range idx.buckets {
		b := &idx.buckets[s]
		start := base
		for r := role(0); r < numRoles; r++ {
			b.offs[r] = base - start
			cnt := counts[s][r]
			counts[s][r] = base
			base += cnt
		}
		b.offs[numRoles] = base - start
		b.entries = idx.entries[start:base:base]
	}
	for h, s := range hashSlot {
		idx.byHash[h] = &idx.buckets[s]
	}
	for k, s := range hostSlot {
		idx.byHost[k] = &idx.buckets[s]
	}
	var slow [numRoles][]packedEntry
	for r := role(0); r < numRoles; r++ {
		if slowCount[r] > 0 {
			slow[r] = make([]packedEntry, 0, slowCount[r])
		}
	}
	// Pass two: direct placement.
	for i := range idx.adds {
		a := &idx.adds[i]
		pe := packedEntry{word: a.word, listBit: a.c.listBit, c: a.c, id: a.c.id}
		if s := slotOf[i]; s >= 0 {
			idx.entries[counts[s][a.r]] = pe
			counts[s][a.r]++
		} else {
			slow[a.r] = append(slow[a.r], pe)
		}
	}
	idx.slow = slow
	idx.adds = nil
}

// scanBucket scans one bucket's wanted role segments, improving res/best
// toward the minimum-id match per role. Segments are id-sorted, so the
// scan of a role stops at the first entry that cannot beat the best match
// already in hand.
func (idx *unifiedIndex) scanBucket(b *bucket, req *Request, ix *indexSide, want uint8, mask uint64, res *[numRoles]*compiledRequest, best *[numRoles]uint32, tr *Trail) {
	for r := role(0); r < numRoles; r++ {
		if want&(uint8(1)<<r) == 0 {
			continue
		}
		seg := b.entries[b.offs[r]:b.offs[r+1]]
		for i := range seg {
			e := &seg[i]
			if e.id >= best[r] {
				break
			}
			if e.listBit&mask == 0 {
				continue
			}
			if !gatePass(e.word, req, ix) {
				if tr != nil {
					tr.GateRejected++
				}
				continue
			}
			ok := e.c.matches(req, ix)
			if tr != nil {
				tr.candidate(e.c, r, ok, false)
			}
			if ok {
				best[r] = e.id
				res[r] = e.c
				break
			}
		}
	}
}

// resolve finds, for every role in want, the matching in-profile filter
// with the lowest insertion id — identical to what a linear scan in list
// order reports — by probing the keyword buckets of the request's
// keyword hashes, the host index along the request host's suffix spans,
// and the slow bucket, all candidate rejection going through the packed
// words first. ix is the request's derived index side. tr, when non-nil, receives provenance
// (explained matches only; the hot path passes nil and pays one
// predictable branch per structure).
func (idx *unifiedIndex) resolve(req *Request, ix *indexSide, want uint8, mask uint64, res *[numRoles]*compiledRequest, tr *Trail) {
	var best [numRoles]uint32
	for r := range best {
		best[r] = ^uint32(0)
	}
	for _, h := range ix.kwh {
		b := idx.byHash[h]
		if b == nil {
			continue
		}
		if tr != nil {
			tr.BucketsProbed++
		}
		idx.scanBucket(b, req, ix, want, mask, res, &best, tr)
	}
	if len(idx.byHost) > 0 {
		for _, key := range ix.hostKeys {
			b := idx.byHost[key]
			if b == nil {
				continue
			}
			if tr != nil {
				tr.HostBucketsProbed++
			}
			idx.scanBucket(b, req, ix, want, mask, res, &best, tr)
		}
	}
	for r := role(0); r < numRoles; r++ {
		if want&(uint8(1)<<r) == 0 {
			continue
		}
		seg := idx.slow[r]
		for i := range seg {
			e := &seg[i]
			if e.id >= best[r] {
				break
			}
			if e.listBit&mask == 0 {
				continue
			}
			if !gatePass(e.word, req, ix) {
				if tr != nil {
					tr.GateRejected++
				}
				continue
			}
			ok := e.c.matches(req, ix)
			if tr != nil {
				tr.SlowScanned++
				tr.candidate(e.c, r, ok, true)
			}
			if ok {
				best[r] = e.id
				res[r] = e.c
				break
			}
		}
	}
}

// findLinear scans every filter of the role without the keyword index —
// the baseline for the index ablations.
func (idx *unifiedIndex) findLinear(req *Request, r role, mask uint64, tr *Trail) *compiledRequest {
	ix := req.index(nil)
	for _, c := range idx.all[r] {
		if c.listBit&mask == 0 {
			continue
		}
		ok := c.matches(req, ix)
		if tr != nil {
			tr.candidate(c, r, ok, false)
		}
		if ok {
			return c
		}
	}
	return nil
}

// hasDNT reports whether any $donottrack filters are loaded, so the
// common no-DNT configuration pays one length check.
func (idx *unifiedIndex) hasDNT() bool { return len(idx.all[roleDNT]) > 0 }

// Engine is an instrumented Adblock Plus filter engine built from one or
// more filter lists (typically EasyList plus the Acceptable Ads whitelist).
// The zero value is unusable; construct with New.
type Engine struct {
	index    *unifiedIndex
	elemHide *elemHideIndex

	numFilters int
	lists      []string
	listCounts map[string]int
	// listBits maps each loaded list name to its membership bit; allMask
	// is the OR of every assigned bit.
	listBits map[string]uint64
	allMask  uint64
	// views holds one immutable *View per profile, keyed by name: the
	// profile table itself. DefaultProfile (all lists) is always present
	// on a sealed engine, and the engine's own match methods run through
	// it.
	views map[string]*View
	// noFingerprint / noHostIndex disable the fingerprint gate and the
	// reversed-domain host index at build time — the ablation switches
	// behind BenchmarkAblationFingerprint* and BenchmarkAblationDomainTrie*.
	noFingerprint bool
	noHostIndex   bool
	// refs maps a filter's dense id to its identity (filter, list, line)
	// — the lookup side of the attribution slots. A built engine fills it
	// during insertCompiled; a snapshot-decoded engine leaves it nil and
	// materializes on first use from the lazyRef columns (the stats and
	// re-encode paths that read refs are cold, and every input stays
	// alive as a zero-copy view, so decode skips one slab entirely).
	refs     []filterRef
	refsOnce sync.Once
	// lazyRefFilters/lazyRefLine/lazyRefListIdx are the id-indexed columns
	// filterRefs materializes from on a decoded engine.
	lazyRefFilters []filter.Filter
	lazyRefLine    []int32
	lazyRefListIdx []uint8
	// hits holds one atomic counter per compiled filter, indexed by the
	// filter's id and sized by seal, so the match path bumps it with a
	// single indexed atomic add — no map, no allocation.
	hits []atomic.Int64
	// metrics is the optional telemetry hook; nil (the default) keeps the
	// match path free of instrumentation. See SetMetrics.
	metrics *engineMetrics
	// quarCount tracks how many request filters have been quarantined on
	// this engine since it was built; see quarantine.go.
	quarCount atomic.Int64
}

// filterRef is the identity behind one attribution slot. The source list
// travels as its load-order index — 1 byte against a 16-byte string
// header; 36k-filter corpora make that difference a visible slice of the
// snapshot-decode budget.
type filterRef struct {
	f       *filter.Filter
	line    int32
	listIdx uint8
}

// filterRefs returns the id-indexed filter identities, materializing
// them on first use for a snapshot-decoded engine (whose decode path
// keeps only the zero-copy line/list columns). Built engines return the
// slice insertCompiled filled. Safe for concurrent readers.
func (e *Engine) filterRefs() []filterRef {
	e.refsOnce.Do(func() {
		if e.refs != nil || e.lazyRefFilters == nil {
			return
		}
		refs := make([]filterRef, len(e.lazyRefFilters))
		for i := range refs {
			refs[i] = filterRef{f: &e.lazyRefFilters[i], line: e.lazyRefLine[i], listIdx: e.lazyRefListIdx[i]}
		}
		e.refs = refs
	})
	return e.refs
}

// listNameOf resolves a membership bit back to its list's name. Every
// compiled form carries its listBit for profile gating, so provenance
// does not need to store the name alongside it.
func listNameOf(lists []string, listBit uint64) string {
	return lists[bits.TrailingZeros64(listBit)]
}

// listOf resolves a compiled filter's membership bit to its list name.
func (e *Engine) listOf(listBit uint64) string { return listNameOf(e.lists, listBit) }

// hit bumps a filter's attribution slot.
func (e *Engine) hit(id uint32) { e.hits[id].Add(1) }

// seal finishes a fully loaded engine — built or decoded — for serving:
// one attribution slot per filter and the always-present DefaultProfile
// view. Builder.Build and FromArenas both end here.
func (e *Engine) seal() {
	e.hits = make([]atomic.Int64, e.numFilters)
	if _, ok := e.views[DefaultProfile]; !ok {
		e.setView(DefaultProfile, e.allMask)
	}
}

// New builds an engine over the given named lists. Invalid entries and
// comments are skipped (the history analyzer, not the engine, accounts for
// them). Filters whose regular expressions fail to compile are reported.
// It is the one-shot convenience over Builder.
func New(lists ...NamedList) (*Engine, error) {
	b := NewBuilder()
	for _, nl := range lists {
		if err := b.Add(nl.Name, nl.List); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// NamedList pairs a filter list with the subscription name the survey
// reports activations under ("easylist", "exceptionrules", ...).
type NamedList struct {
	Name string
	List *filter.List
}

// maxLists bounds how many lists one engine can hold: each list gets one
// membership bit of a uint64 profile mask.
const maxLists = 64

// addList compiles every active filter of l and files it under the given
// list name; Build freezes the index over all of them. Pattern and
// selector compilation fans out across workers; insertion stays
// sequential, so the built engine is byte-for-byte deterministic
// regardless of worker count.
func (e *Engine) addList(name string, l *filter.List, workers int) error {
	if e.listBits == nil {
		e.listBits = make(map[string]uint64)
	}
	if _, dup := e.listBits[name]; dup {
		return fmt.Errorf("engine: list %q already loaded", name)
	}
	if len(e.lists) >= maxLists {
		return fmt.Errorf("engine: more than %d lists (profile masks are 64-bit)", maxLists)
	}
	bit := uint64(1) << len(e.lists)
	e.listBits[name] = bit
	e.allMask |= bit
	e.lists = append(e.lists, name)
	before := e.numFilters
	filters := l.Active()
	// Source lines for attribution: position of each active filter within
	// the list text, 1-based, in the same order Active() returns them.
	lines := make([]int32, 0, len(filters))
	for i, f := range l.Entries {
		if f.IsActive() {
			lines = append(lines, int32(i+1))
		}
	}
	units := compileFilters(filters, workers)
	// Arena allocation: count each compiled kind up front so every
	// compiledRequest / compiledElem of the list lands in one contiguous
	// slab. Cells are handed out by index (never append), so the pointers
	// filed in the indexes stay stable for the engine's lifetime.
	arena := newListArena(filters)
	for i, f := range filters {
		if err := units[i].err; err != nil {
			return fmt.Errorf("engine: list %s: filter %q: %w", name, f.Raw, err)
		}
		e.insertCompiled(name, f, units[i], lines[i], arena)
	}
	if e.listCounts == nil {
		e.listCounts = make(map[string]int)
	}
	e.listCounts[name] += e.numFilters - before
	return nil
}

// listArena holds one list's compiled-filter slabs. Cells are claimed by
// index into fixed-size backing arrays, so &req[i] / &elem[i] are stable
// addresses the indexes can file.
type listArena struct {
	req         []compiledRequest
	elem        []compiledElem
	nReq, nElem int
}

func newListArena(filters []*filter.Filter) *listArena {
	nReq, nElem := 0, 0
	for _, f := range filters {
		switch f.Kind {
		case filter.KindRequestBlock, filter.KindRequestException:
			nReq++
		case filter.KindElemHide, filter.KindElemHideException:
			nElem++
		}
	}
	return &listArena{req: make([]compiledRequest, nReq), elem: make([]compiledElem, nElem)}
}

// insertCompiled files one pre-compiled filter into the indexes under the
// next dense attribution id, placing its compiled form in the arena.
func (e *Engine) insertCompiled(list string, f *filter.Filter, u compiledUnit, line int32, arena *listArena) {
	id := uint32(len(e.refs))
	bit := e.listBits[list]
	li := uint8(bits.TrailingZeros64(bit))
	switch f.Kind {
	case filter.KindRequestBlock, filter.KindRequestException:
		c := &arena.req[arena.nReq]
		arena.nReq++
		c.f, c.pat, c.id, c.line, c.listBit = f, *u.pat, id, line, bit
		word := buildGateWord(f, u.pat, e.noFingerprint)
		hostKey := u.pat.hostKey
		if e.noHostIndex {
			hostKey = ""
		}
		e.index.add(requestRole(f), c, word, hostKey)
	case filter.KindElemHide, filter.KindElemHideException:
		c := &arena.elem[arena.nElem]
		arena.nElem++
		c.f, c.sel, c.id, c.line, c.listBit = f, u.sel, id, line, bit
		e.elemHide.addCompiled(c)
	}
	e.refs = append(e.refs, filterRef{f: f, line: line, listIdx: li})
	e.numFilters++
}

// requestRole derives a request filter's index role from its kind and
// $donottrack flag — the inverse of what insertCompiled stores, which is
// why the snapshot codec never serializes roles.
func requestRole(f *filter.Filter) role {
	switch {
	case f.DoNotTrack && f.Kind == filter.KindRequestBlock:
		return roleDNT
	case f.DoNotTrack:
		return roleDNTException
	case f.Kind == filter.KindRequestBlock:
		return roleBlocking
	default:
		return roleException
	}
}

// NumFilters returns the number of compiled filters.
func (e *Engine) NumFilters() int { return e.numFilters }

// Lists returns the names of the loaded lists in load order.
func (e *Engine) Lists() []string { return e.lists }

// ListFilters returns how many compiled filters the named list
// contributed, or 0 for an unknown list.
func (e *Engine) ListFilters(name string) int { return e.listCounts[name] }

// FilterStat is one compiled filter's hit attribution: its text, where it
// came from, and how many times it has been the effective filter since the
// engine was built.
type FilterStat struct {
	Filter string `json:"filter"`
	List   string `json:"list"`
	Line   int    `json:"line"`
	Hits   int64  `json:"hits"`
}

// FilterStats snapshots every filter's attribution counter in load (id)
// order. Safe under concurrent matching: each slot is read with one atomic
// load, so the snapshot is per-filter consistent (not a global cut — hits
// landing mid-snapshot may or may not be included).
func (e *Engine) FilterStats() []FilterStat {
	refs := e.filterRefs()
	out := make([]FilterStat, len(refs))
	for i, r := range refs {
		out[i] = FilterStat{
			Filter: r.f.Raw,
			List:   e.lists[r.listIdx],
			Line:   int(r.line),
			Hits:   e.hits[i].Load(),
		}
	}
	return out
}

// TopFilters returns the n most-hit filters, most hits first, ties broken
// by load order. The paper's core attribution question — what fraction of
// a list's rules does the real work — reads straight off this ranking.
func (e *Engine) TopFilters(n int) []FilterStat {
	stats := e.FilterStats()
	sort.SliceStable(stats, func(i, j int) bool { return stats[i].Hits > stats[j].Hits })
	if n >= 0 && n < len(stats) {
		stats = stats[:n]
	}
	return stats
}

// ListAttribution aggregates hit attribution over one list.
type ListAttribution struct {
	// Filters is how many compiled filters the list contributed.
	Filters int `json:"filters"`
	// Fired is how many of those have at least one hit.
	Fired int `json:"fired"`
	// Hits is the list's total effective-filter hits.
	Hits int64 `json:"hits"`
}

// AttributionByList rolls the per-filter counters up per source list.
func (e *Engine) AttributionByList() map[string]ListAttribution {
	out := make(map[string]ListAttribution, len(e.lists))
	for _, name := range e.lists {
		out[name] = ListAttribution{Filters: e.listCounts[name]}
	}
	for i, r := range e.filterRefs() {
		name := e.lists[r.listIdx]
		la := out[name]
		if h := e.hits[i].Load(); h > 0 {
			la.Fired++
			la.Hits += h
		}
		out[name] = la
	}
	return out
}

// MatchRequest decides the fate of a request. With no options it runs in
// instrumented mode: both the blocking and the exception side are always
// evaluated so that "needless" exception activations are observed, exactly
// as the paper's modified Adblock Plus did. Only the *effective* filter is
// recorded as an activation: an exception that fires records itself
// (whether or not a blocking filter also matched), while a blocking filter
// records only when it actually cancels the request — the counting behind
// Figures 6 and 8, where the whitelist's conversion trackers outrank every
// EasyList filter even though each allowed request also matched a blocker.
//
// WithShortCircuit and WithLinearScan select the production short-circuit
// and the index-free ablation evaluation respectively; see the options.
//
// The engine's match methods serve the DefaultProfile view and record
// nothing; View.WithRecorder adds a recorder.
func (e *Engine) MatchRequest(req *Request, opts ...MatchOption) Decision {
	return e.views[DefaultProfile].MatchRequest(req, opts...)
}

// PageFlags reports whole-page allowances granted by $document/$elemhide
// exception filters (including sitekey filters) for a page load.
type PageFlags struct {
	// DocumentAllowed disables all blocking on the page: every request
	// proceeds and nothing is hidden. Granted by $document exceptions,
	// which is how sitekey filters whitelist entire parked domains.
	DocumentAllowed bool
	// ElemHideDisabled disables element hiding only (e.g. the paper's
	// "@@||ask.com^$elemhide" A-filters).
	ElemHideDisabled bool
	// DocumentBy / ElemHideBy are the granting filters, when any.
	DocumentBy *Match
	ElemHideBy *Match
}

// PagePermissions evaluates page-level exceptions for a top-level document
// load. sitekey is the verified base64 public key presented by the server,
// or "".
func (e *Engine) PagePermissions(pageURL, sitekey string) PageFlags {
	return e.views[DefaultProfile].PagePermissions(pageURL, sitekey)
}

// lowerASCII lowercases A-Z only, leaving the rest of the URL intact; it
// avoids the Unicode tables of strings.ToLower on the hot path.
func lowerASCII(s string) string {
	hasUpper := false
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			hasUpper = true
			break
		}
	}
	if !hasUpper {
		return s
	}
	b := []byte(s)
	for i := 0; i < len(b); i++ {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
