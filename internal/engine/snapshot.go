package engine

import (
	"fmt"
	"regexp"

	"acceptableads/internal/css"
	"acceptableads/internal/filter"
	"acceptableads/internal/strtab"
)

// Arenas is the flat, relocatable form of a built engine: every scalar
// per-filter field lives in a dense column indexed by the filter's id,
// and variable-length per-filter data (pattern segments, $domain
// entries, sitekeys) lives in shared flat arrays windowed by offset
// columns. It is exactly what the snapbin codec serializes — bulk slab
// writes on encode, bulk slab reads on decode — and FromArenas rebuilds
// a serving engine from it without re-parsing list text or re-deriving
// any compile artifact except true regular expressions (the only form
// whose compiled state is not plain data): CSS selectors travel as a
// flat css.Arena and the frozen probe-index layout travels as the
// Bkt*/Idx*/Slow* columns below.
type Arenas struct {
	Lists    []ArenaList
	Profiles []ArenaProfile
	// NoFingerprint / NoHostIndex reproduce the builder's ablation
	// switches, so a decoded engine gates identically.
	NoFingerprint bool
	NoHostIndex   bool

	// Per-filter columns, each len == number of filters. String columns
	// whose entries are copied out into the rebuilt filters are strtab
	// columns (two zero-copy views when decoded instead of a []string
	// header slab); Segments and Sitekeys below stay []string because
	// FromArenas windows them in place.
	Raw      strtab.Col
	Kind     []uint8
	Flags    []uint8 // arenaIsRegex ... arenaHasRe bits
	TypeMask []uint32
	Tri      []uint8 // ThirdParty in bits 0-1, Collapse in bits 2-3
	Line     []int32
	ListIdx  []uint8
	Pattern  strtab.Col
	Selector strtab.Col
	HostKey  strtab.Col
	KwHash   []uint64
	GateWord []uint64

	// Variable-length per-filter data, flattened: filter i owns
	// Segments[SegOff[i]:SegOff[i+1]], Domains/DomNeg[DomOff[i]:...],
	// Sitekeys[KeyOff[i]:...]. Offset columns have one extra entry.
	SegOff   []uint32
	Segments []string
	DomOff   []uint32
	Domains  strtab.Col
	DomNeg   []bool
	KeyOff   []uint32
	Sitekeys []string

	// Css carries every element-hiding selector's compiled form, in
	// filter-id order over the hiding/exception filters, so decode is a
	// slab build instead of a per-selector parse.
	Css css.Arena

	// Frozen request-index layout, captured after freeze() so decode can
	// install the probe structures directly instead of re-deriving them.
	// Bucket b is BktKind[b] (0 = keyword-hash, keyed by BktHash[b];
	// 1 = reversed-domain host, keyed by BktHost[b]) and owns the
	// numRoles+1 relative role offsets BktOffs[b*(numRoles+1):...] over
	// its window of IdxIds. IdxIds/SlowIds carry filter ids in slab
	// order; each (bucket, role) segment is strictly id-ascending, the
	// invariant the probe early-exit relies on.
	BktKind  []uint8
	BktHash  []uint64
	BktHost  strtab.Col
	BktOffs  []uint32
	IdxIds   []uint32
	SlowOffs []uint32 // numRoles+1 offsets into SlowIds
	SlowIds  []uint32
}

// ArenaList is one loaded list's identity and compiled-filter count (a
// decode-time consistency check against the ListIdx column).
type ArenaList struct {
	Name    string
	Filters int
}

// ArenaProfile is one registered profile and its list-membership mask.
type ArenaProfile struct {
	Name string
	Mask uint64
}

// Per-filter flag bits in Arenas.Flags.
const (
	arenaIsRegex uint8 = 1 << iota
	arenaAnchorDomain
	arenaAnchorStart
	arenaAnchorEnd
	arenaMatchCase
	arenaDoNotTrack
	arenaHasKW
	arenaHasRe // pattern carries a compiled (non-literal) regexp
)

// ToArenas flattens the built engine into its arena form. The engine is
// not mutated; the arenas share its strings.
func (e *Engine) ToArenas() *Arenas {
	refs := e.filterRefs()
	n := len(refs)
	// Every request filter sits in exactly one frozen index cell (a bucket
	// segment or the slow path) with its gate word, so the frozen
	// structures themselves are the authoritative (pattern, word) source —
	// valid for built and decoded engines alike.
	pats := make([]*pattern, n)
	words := make([]uint64, n)
	for i := range e.index.entries {
		pe := &e.index.entries[i]
		pats[pe.id], words[pe.id] = &pe.c.pat, pe.word
	}
	for r := role(0); r < numRoles; r++ {
		for i := range e.index.slow[r] {
			pe := &e.index.slow[r][i]
			pats[pe.id], words[pe.id] = &pe.c.pat, pe.word
		}
	}
	a := &Arenas{
		NoFingerprint: e.noFingerprint,
		NoHostIndex:   e.noHostIndex,
		Kind:          make([]uint8, n),
		Flags:         make([]uint8, n),
		TypeMask:      make([]uint32, n),
		Tri:           make([]uint8, n),
		Line:          make([]int32, n),
		ListIdx:       make([]uint8, n),
		KwHash:        make([]uint64, n),
		GateWord:      make([]uint64, n),
		SegOff:        make([]uint32, n+1),
		DomOff:        make([]uint32, n+1),
		KeyOff:        make([]uint32, n+1),
	}
	a.Raw.Grow(n, 0)
	a.Pattern.Grow(n, 0)
	a.Selector.Grow(n, 0)
	a.HostKey.Grow(n, 0)
	for _, name := range e.lists {
		a.Lists = append(a.Lists, ArenaList{Name: name, Filters: e.listCounts[name]})
	}
	for _, name := range e.Profiles() {
		a.Profiles = append(a.Profiles, ArenaProfile{Name: name, Mask: e.views[name].mask})
	}
	for id := 0; id < n; id++ {
		ref := &refs[id]
		f := ref.f
		a.Raw.Append(f.Raw)
		a.Kind[id] = uint8(f.Kind)
		a.TypeMask[id] = uint32(f.TypeMask)
		a.Tri[id] = uint8(f.ThirdParty) | uint8(f.Collapse)<<2
		a.Line[id] = ref.line
		a.ListIdx[id] = ref.listIdx
		a.Pattern.Append(f.Pattern)
		a.Selector.Append(f.Selector)
		var fl uint8
		if f.IsRegex {
			fl |= arenaIsRegex
		}
		if f.AnchorDomain {
			fl |= arenaAnchorDomain
		}
		if f.AnchorStart {
			fl |= arenaAnchorStart
		}
		if f.AnchorEnd {
			fl |= arenaAnchorEnd
		}
		if f.MatchCase {
			fl |= arenaMatchCase
		}
		if f.DoNotTrack {
			fl |= arenaDoNotTrack
		}
		a.SegOff[id] = uint32(len(a.Segments))
		if p := pats[id]; p != nil {
			a.Segments = append(a.Segments, p.segments...)
			a.HostKey.Append(p.hostKey)
			a.KwHash[id] = p.kwHash
			a.GateWord[id] = words[id]
			if p.hasKW {
				fl |= arenaHasKW
			}
			if p.re != nil {
				fl |= arenaHasRe
			}
		} else {
			a.HostKey.Append("")
		}
		a.Flags[id] = fl
		a.DomOff[id] = uint32(a.Domains.Len())
		for _, d := range f.Domains {
			a.Domains.Append(d.Domain)
			a.DomNeg = append(a.DomNeg, d.Negated)
		}
		a.KeyOff[id] = uint32(len(a.Sitekeys))
		a.Sitekeys = append(a.Sitekeys, f.Sitekeys...)
	}
	a.SegOff[n] = uint32(len(a.Segments))
	a.DomOff[n] = uint32(a.Domains.Len())
	a.KeyOff[n] = uint32(len(a.Sitekeys))

	// Compiled selectors, in filter-id order (the order FromArenas
	// consumes them in).
	selOf := make([]*css.Selector, n)
	for _, c := range e.elemHide.all {
		selOf[c.id] = c.sel
	}
	for _, cs := range e.elemHide.exceptions {
		for _, c := range cs {
			selOf[c.id] = c.sel
		}
	}
	for id := 0; id < n; id++ {
		if selOf[id] != nil {
			a.Css.Append(selOf[id])
		}
	}

	// Frozen index layout: bucket keys recovered from the probe maps,
	// entries dumped in slab order.
	idx := e.index
	bktOf := make(map[*bucket]int32, len(idx.buckets))
	for i := range idx.buckets {
		bktOf[&idx.buckets[i]] = int32(i)
	}
	nb := len(idx.buckets)
	a.BktKind = make([]uint8, nb)
	a.BktHash = make([]uint64, nb)
	hosts := make([]string, nb)
	a.BktOffs = make([]uint32, 0, nb*int(numRoles+1))
	a.IdxIds = make([]uint32, 0, len(idx.entries))
	for h, b := range idx.byHash {
		a.BktHash[bktOf[b]] = h
	}
	for k, b := range idx.byHost {
		i := bktOf[b]
		a.BktKind[i] = 1
		hosts[i] = k
	}
	a.BktHost.Grow(nb, 0)
	for _, h := range hosts {
		a.BktHost.Append(h)
	}
	for i := range idx.buckets {
		b := &idx.buckets[i]
		a.BktOffs = append(a.BktOffs, b.offs[:]...)
		for j := range b.entries {
			a.IdxIds = append(a.IdxIds, b.entries[j].id)
		}
	}
	a.SlowOffs = make([]uint32, numRoles+1)
	for r := role(0); r < numRoles; r++ {
		a.SlowOffs[r] = uint32(len(a.SlowIds))
		for j := range idx.slow[r] {
			a.SlowIds = append(a.SlowIds, idx.slow[r][j].id)
		}
	}
	a.SlowOffs[numRoles] = uint32(len(a.SlowIds))
	return a
}

// validate rejects any arena set that could not have come from ToArenas:
// mismatched column lengths, non-monotonic offsets, out-of-range list
// references, unknown kinds. FromArenas runs it before touching a single
// filter, so a corrupt (but checksum-passing) snapshot yields an error,
// never a panic or a half-built engine.
func (a *Arenas) validate() error {
	for _, c := range []struct {
		name string
		col  *strtab.Col
	}{
		{"raw", &a.Raw}, {"pattern", &a.Pattern}, {"selector", &a.Selector},
		{"hostkey", &a.HostKey}, {"domains", &a.Domains}, {"bkthost", &a.BktHost},
	} {
		if err := c.col.Validate(); err != nil {
			return fmt.Errorf("engine: arenas: %s column: %w", c.name, err)
		}
	}
	n := a.Raw.Len()
	cols := []struct {
		name string
		got  int
	}{
		{"kind", len(a.Kind)}, {"flags", len(a.Flags)}, {"typemask", len(a.TypeMask)},
		{"tri", len(a.Tri)}, {"line", len(a.Line)}, {"listidx", len(a.ListIdx)},
		{"pattern", a.Pattern.Len()}, {"selector", a.Selector.Len()}, {"hostkey", a.HostKey.Len()},
		{"kwhash", len(a.KwHash)}, {"gateword", len(a.GateWord)},
	}
	for _, c := range cols {
		if c.got != n {
			return fmt.Errorf("engine: arenas: column %s has %d entries, want %d", c.name, c.got, n)
		}
	}
	offs := []struct {
		name string
		off  []uint32
		flat int
	}{
		{"segments", a.SegOff, len(a.Segments)},
		{"domains", a.DomOff, a.Domains.Len()},
		{"sitekeys", a.KeyOff, len(a.Sitekeys)},
	}
	for _, o := range offs {
		if len(o.off) != n+1 {
			return fmt.Errorf("engine: arenas: %s offsets have %d entries, want %d", o.name, len(o.off), n+1)
		}
		if n >= 0 && (len(o.off) == 0 || o.off[0] != 0 || int(o.off[n]) != o.flat) {
			return fmt.Errorf("engine: arenas: %s offsets span [%v..%v], want [0..%d]", o.name, o.off[0], o.off[n], o.flat)
		}
		for i := 0; i < n; i++ {
			if o.off[i] > o.off[i+1] {
				return fmt.Errorf("engine: arenas: %s offsets decrease at filter %d", o.name, i)
			}
		}
	}
	if len(a.DomNeg) != a.Domains.Len() {
		return fmt.Errorf("engine: arenas: %d domain negation bits for %d domains", len(a.DomNeg), a.Domains.Len())
	}
	if len(a.Lists) > maxLists {
		return fmt.Errorf("engine: arenas: %d lists (max %d)", len(a.Lists), maxLists)
	}
	listSeen := make(map[string]bool, len(a.Lists))
	for _, l := range a.Lists {
		if l.Name == "" || listSeen[l.Name] {
			return fmt.Errorf("engine: arenas: empty or duplicate list name %q", l.Name)
		}
		listSeen[l.Name] = true
	}
	var allMask uint64
	if len(a.Lists) > 0 {
		allMask = uint64(1)<<uint(len(a.Lists)) - 1
	}
	profSeen := make(map[string]bool, len(a.Profiles))
	for _, p := range a.Profiles {
		if p.Name == "" || profSeen[p.Name] {
			return fmt.Errorf("engine: arenas: empty or duplicate profile name %q", p.Name)
		}
		profSeen[p.Name] = true
		if p.Mask&^allMask != 0 {
			return fmt.Errorf("engine: arenas: profile %q mask %#x references unknown lists", p.Name, p.Mask)
		}
	}
	counts := make([]int, len(a.Lists))
	nElem := 0
	for id := 0; id < n; id++ {
		switch filter.Kind(a.Kind[id]) {
		case filter.KindElemHide, filter.KindElemHideException:
			nElem++
		case filter.KindRequestBlock, filter.KindRequestException:
		default:
			return fmt.Errorf("engine: arenas: filter %d has non-compilable kind %d", id, a.Kind[id])
		}
		if int(a.ListIdx[id]) >= len(a.Lists) {
			return fmt.Errorf("engine: arenas: filter %d references list %d of %d", id, a.ListIdx[id], len(a.Lists))
		}
		counts[a.ListIdx[id]]++
		if a.Tri[id]&3 > uint8(filter.No) || a.Tri[id]>>2&3 > uint8(filter.No) {
			return fmt.Errorf("engine: arenas: filter %d has invalid tri-state byte %#x", id, a.Tri[id])
		}
	}
	for i, l := range a.Lists {
		if counts[i] != l.Filters {
			return fmt.Errorf("engine: arenas: list %q declares %d filters, columns carry %d", l.Name, l.Filters, counts[i])
		}
	}
	if a.Css.Raw.Len() != nElem {
		return fmt.Errorf("engine: arenas: selector arena carries %d selectors for %d hiding filters", a.Css.Raw.Len(), nElem)
	}
	nb := len(a.BktKind)
	if len(a.BktHash) != nb || a.BktHost.Len() != nb {
		return fmt.Errorf("engine: arenas: bucket key columns disagree: %d kinds, %d hashes, %d hosts",
			nb, len(a.BktHash), a.BktHost.Len())
	}
	if len(a.BktOffs) != nb*int(numRoles+1) {
		return fmt.Errorf("engine: arenas: %d bucket offsets for %d buckets, want %d", len(a.BktOffs), nb, nb*int(numRoles+1))
	}
	if len(a.SlowOffs) != int(numRoles)+1 {
		return fmt.Errorf("engine: arenas: %d slow offsets, want %d", len(a.SlowOffs), numRoles+1)
	}
	return nil
}

// installLayout installs the frozen probe structures recorded in the
// arenas, replacing the freeze() re-derivation on the decode path: every
// bucket header, role offset, and slab entry is placed exactly where the
// encoding engine had it, so the decoded index is the original index by
// construction. The layout is fully cross-checked against the filter
// columns first — every id must name a request filter, appear exactly
// once across buckets and the slow path, and each (bucket, role) segment
// must be strictly id-ascending (the probe early-exit invariant) — so a
// corrupt layout yields an error, never a misbehaving index.
func (idx *unifiedIndex) installLayout(a *Arenas, reqs []compiledRequest, reqIdxOf []int32) error {
	nb := len(a.BktKind)
	nReq := len(reqs)
	if len(a.IdxIds)+len(a.SlowIds) != nReq {
		return fmt.Errorf("engine: arenas: index layout files %d filters, corpus has %d request filters",
			len(a.IdxIds)+len(a.SlowIds), nReq)
	}
	seen := make([]bool, len(reqIdxOf))
	fill := func(dst []packedEntry, ids []uint32) error {
		prev := int64(-1)
		for i, id := range ids {
			if int(id) >= len(reqIdxOf) || reqIdxOf[id] < 0 {
				return fmt.Errorf("engine: arenas: index entry references filter %d, not a request filter", id)
			}
			if int64(id) <= prev {
				return fmt.Errorf("engine: arenas: index segment ids not ascending at filter %d", id)
			}
			prev = int64(id)
			if seen[id] {
				return fmt.Errorf("engine: arenas: filter %d filed twice in index layout", id)
			}
			seen[id] = true
			// listBit comes from the arena column, not the request cell:
			// the ids stream in bucket order, so the column read stays in
			// cache while a c.listBit load would fault a cold cache line
			// per entry.
			dst[i] = packedEntry{word: a.GateWord[id],
				listBit: uint64(1) << uint(a.ListIdx[id]), c: &reqs[reqIdxOf[id]], id: id}
		}
		return nil
	}
	nHost := 0
	for _, k := range a.BktKind {
		if k == 1 {
			nHost++
		}
	}
	idx.entries = make([]packedEntry, len(a.IdxIds))
	idx.buckets = make([]bucket, nb)
	idx.byHash = make(map[uint64]*bucket, nb-nHost)
	idx.byHost = make(map[string]*bucket, nHost)
	base := uint32(0)
	for s := 0; s < nb; s++ {
		offs := a.BktOffs[s*int(numRoles+1) : (s+1)*int(numRoles+1)]
		if offs[0] != 0 {
			return fmt.Errorf("engine: arenas: bucket %d role offsets start at %d", s, offs[0])
		}
		for r := role(0); r < numRoles; r++ {
			if offs[r] > offs[r+1] {
				return fmt.Errorf("engine: arenas: bucket %d role offsets decrease", s)
			}
		}
		width := offs[numRoles]
		if int(base)+int(width) > len(idx.entries) {
			return fmt.Errorf("engine: arenas: bucket windows overrun %d index entries", len(idx.entries))
		}
		b := &idx.buckets[s]
		copy(b.offs[:], offs)
		end := base + width
		b.entries = idx.entries[base:end:end]
		for r := role(0); r < numRoles; r++ {
			if err := fill(b.entries[offs[r]:offs[r+1]], a.IdxIds[base+offs[r]:base+offs[r+1]]); err != nil {
				return err
			}
		}
		base = end
		switch a.BktKind[s] {
		case 0:
			if _, dup := idx.byHash[a.BktHash[s]]; dup {
				return fmt.Errorf("engine: arenas: duplicate keyword bucket %#x", a.BktHash[s])
			}
			idx.byHash[a.BktHash[s]] = b
		case 1:
			host := a.BktHost.At(s)
			if host == "" {
				return fmt.Errorf("engine: arenas: host bucket %d has empty key", s)
			}
			if _, dup := idx.byHost[host]; dup {
				return fmt.Errorf("engine: arenas: duplicate host bucket %q", host)
			}
			idx.byHost[host] = b
		default:
			return fmt.Errorf("engine: arenas: bucket %d has unknown kind %d", s, a.BktKind[s])
		}
	}
	if int(base) != len(idx.entries) {
		return fmt.Errorf("engine: arenas: bucket windows cover %d of %d index entries", base, len(idx.entries))
	}
	if a.SlowOffs[0] != 0 || int(a.SlowOffs[numRoles]) != len(a.SlowIds) {
		return fmt.Errorf("engine: arenas: slow offsets span [%d..%d], want [0..%d]",
			a.SlowOffs[0], a.SlowOffs[numRoles], len(a.SlowIds))
	}
	slowSlab := make([]packedEntry, len(a.SlowIds))
	for r := role(0); r < numRoles; r++ {
		lo, hi := a.SlowOffs[r], a.SlowOffs[r+1]
		if lo > hi {
			return fmt.Errorf("engine: arenas: slow offsets decrease at role %d", r)
		}
		if hi > lo {
			seg := slowSlab[lo:hi:hi]
			if err := fill(seg, a.SlowIds[lo:hi]); err != nil {
				return err
			}
			idx.slow[r] = seg
		}
	}
	return nil
}

// FromArenas rebuilds a serving engine from its arena form. All compiled
// state except regular expressions is adopted verbatim — segments,
// keyword hashes, gate words, host keys, slab-decoded CSS selectors, and
// the frozen index layout itself — so the resulting index is the one the
// original builder produced, verdicts and winning identities included,
// without re-parsing list text or re-deriving any probe structure.
//
// The input is fully validated first: a corrupt arena set returns an
// error and never a partially initialized engine.
func FromArenas(a *Arenas) (*Engine, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	n := a.Raw.Len()
	e := &Engine{
		index:         &unifiedIndex{},
		elemHide:      &elemHideIndex{},
		listCounts:    make(map[string]int, len(a.Lists)),
		listBits:      make(map[string]uint64, len(a.Lists)),
		noFingerprint: a.NoFingerprint,
		noHostIndex:   a.NoHostIndex,
	}
	for i, l := range a.Lists {
		bit := uint64(1) << uint(i)
		e.listBits[l.Name] = bit
		e.allMask |= bit
		e.lists = append(e.lists, l.Name)
		e.listCounts[l.Name] = l.Filters
	}
	// Bulk arena allocation: one slab per compiled form, sized by one
	// counting pass — the "no per-filter allocation" half of the codec's
	// contract.
	nReq := 0
	var perRole [numRoles]int
	for id := 0; id < n; id++ {
		k := filter.Kind(a.Kind[id])
		if k == filter.KindRequestBlock || k == filter.KindRequestException {
			nReq++
			dnt := a.Flags[id]&arenaDoNotTrack != 0
			switch {
			case dnt && k == filter.KindRequestBlock:
				perRole[roleDNT]++
			case dnt:
				perRole[roleDNTException]++
			case k == filter.KindRequestBlock:
				perRole[roleBlocking]++
			default:
				perRole[roleException]++
			}
		}
	}
	// The construction log (adds) is skipped entirely: the frozen layout
	// arrives serialized, so decode never freezes, and ToArenas reads the
	// frozen structures. Only the per-role linear views are filed.
	for r := range perRole {
		e.index.all[r] = make([]*compiledRequest, 0, perRole[r])
	}
	sels, err := a.Css.Build()
	if err != nil {
		return nil, err
	}
	filters := make([]filter.Filter, n)
	doms := make([]filter.DomainSpec, a.Domains.Len())
	for i := range doms {
		doms[i] = filter.DomainSpec{Domain: a.Domains.At(i), Negated: a.DomNeg[i]}
	}
	reqs := make([]compiledRequest, nReq)
	elems := make([]compiledElem, n-nReq)
	// reqIdxOf maps filter id → slot in reqs (-1 for hiding filters): a
	// pointer-free scratch table, so filling it costs no write barriers
	// and the GC never scans it.
	reqIdxOf := make([]int32, n)
	// refs are not materialized here: the decoded Line/ListIdx columns
	// alias the snapshot buffer (pinned by the filter strings anyway), so
	// the cold stats/re-encode paths can build them on first use.
	e.lazyRefFilters, e.lazyRefLine, e.lazyRefListIdx = filters, a.Line, a.ListIdx
	iReq, iElem := 0, 0
	for id := 0; id < n; id++ {
		f := &filters[id]
		fl := a.Flags[id]
		f.Raw = a.Raw.At(id)
		f.Kind = filter.Kind(a.Kind[id])
		f.Pattern = a.Pattern.At(id)
		f.IsRegex = fl&arenaIsRegex != 0
		f.AnchorDomain = fl&arenaAnchorDomain != 0
		f.AnchorStart = fl&arenaAnchorStart != 0
		f.AnchorEnd = fl&arenaAnchorEnd != 0
		f.MatchCase = fl&arenaMatchCase != 0
		f.DoNotTrack = fl&arenaDoNotTrack != 0
		f.TypeMask = filter.ContentType(a.TypeMask[id])
		f.ThirdParty = filter.TriState(a.Tri[id] & 3)
		f.Collapse = filter.TriState(a.Tri[id] >> 2 & 3)
		f.Domains = doms[a.DomOff[id]:a.DomOff[id+1]]
		f.Sitekeys = a.Sitekeys[a.KeyOff[id]:a.KeyOff[id+1]]
		f.Selector = a.Selector.At(id)
		bit := uint64(1) << uint(a.ListIdx[id])
		line := a.Line[id]
		switch f.Kind {
		case filter.KindRequestBlock, filter.KindRequestException:
			c := &reqs[iReq]
			reqIdxOf[id] = int32(iReq)
			iReq++
			p := &c.pat
			p.segments = a.Segments[a.SegOff[id]:a.SegOff[id+1]]
			p.anchorStart, p.anchorEnd = f.AnchorStart, f.AnchorEnd
			p.anchorDomain, p.matchCase = f.AnchorDomain, f.MatchCase
			p.kwHash = a.KwHash[id]
			p.hasKW = fl&arenaHasKW != 0
			p.hostKey = a.HostKey.At(id)
			if fl&arenaHasRe != 0 {
				expr := f.Pattern
				if !f.MatchCase {
					expr = "(?i)" + expr
				}
				re, err := regexp.Compile(expr)
				if err != nil {
					return nil, fmt.Errorf("engine: arenas: filter %d regex %q: %w", id, f.Pattern, err)
				}
				p.re = re
			}
			c.f, c.id, c.line, c.listBit = f, uint32(id), line, bit
			r := requestRole(f)
			e.index.all[r] = append(e.index.all[r], c)
		default:
			reqIdxOf[id] = -1
			c := &elems[iElem]
			c.f, c.sel, c.id, c.line, c.listBit = f, &sels[iElem], uint32(id), line, bit
			iElem++
		}
	}
	e.elemHide.install(elems)
	e.numFilters = n
	if err := e.index.installLayout(a, reqs, reqIdxOf); err != nil {
		return nil, err
	}
	e.views = make(map[string]*View, len(a.Profiles)+1)
	for _, p := range a.Profiles {
		e.setView(p.Name, p.Mask)
	}
	e.seal()
	return e, nil
}
