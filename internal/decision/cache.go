package decision

import (
	"sync"

	"acceptableads/internal/decision/api"
	"acceptableads/internal/engine"
	"acceptableads/internal/filter"
	"acceptableads/internal/obs"
)

// shardCount is the number of cache shards. It is a power of two so the
// shard of a key is a single AND off its hash; 16 shards keep lock
// contention negligible up to well past NumCPU matcher goroutines.
const shardCount = 16

// Cache is a sharded LRU over match decisions. A key canonicalizes one
// request as (snapshot version, profile id, raw URL, content type,
// case-folded document host, third-party bit) — exactly the inputs
// request matching depends on, so two requests with equal keys always
// produce identical decisions against the same snapshot. The URL keeps
// its original case: $match-case and regex filters match against it
// case-sensitively, so two URLs differing only in case can decide
// differently and must not share an entry. The document host is
// case-insensitive — $domain restrictions compare hostnames. Sitekey-
// restricted requests are never cached (the sitekey is deliberately not
// part of the key).
//
// Keys never materialize as strings: the lookup hashes the request's
// fields incrementally into a 64-bit FNV-1a key and the entry stores the
// fields themselves for verification, so a cache hit performs zero heap
// allocations (BenchmarkDecisionCacheOn pins it). A 64-bit hash
// collision is detected by the field comparison and treated as a miss
// (on Put, latest wins) — wrong answers are impossible, a collision only
// costs a re-match.
//
// The total capacity is rounded up to a power of two and split evenly
// across the shards; each shard runs an independent LRU under its own
// mutex.
type Cache struct {
	shards   [shardCount]cacheShard
	perShard int

	hits, misses, evictions *obs.Counter
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[uint64]*cacheEntry
	// Intrusive LRU list: front is most recently used.
	front, back *cacheEntry
}

// cacheEntry stores the packed verdict plus the key fields it was
// computed for, so a lookup verifies identity with integer and string
// compares instead of assembling a key string.
type cacheEntry struct {
	h       uint64
	version uint64
	profile int
	url     string
	doc     string
	typ     filter.ContentType
	third   bool

	d          engine.Decision
	prev, next *cacheEntry
}

// stores overwrites the entry's key fields and verdict in place (LRU
// node identity is preserved).
func (e *cacheEntry) store(version uint64, profile int, req *engine.Request, d engine.Decision) {
	e.version = version
	e.profile = profile
	e.url = req.URL
	e.doc = req.DocumentHost
	e.typ = req.Type
	e.third = req.ThirdParty()
	e.d = d
}

// matches verifies an entry against the request it hashed equal to —
// the collision guard behind the hash-keyed map.
func (e *cacheEntry) matches(version uint64, profile int, req *engine.Request) bool {
	return e.version == version && e.profile == profile && e.typ == req.Type &&
		e.third == req.ThirdParty() && e.url == req.URL &&
		hostFoldEqual(e.doc, req.DocumentHost)
}

// hostFoldEqual compares two document hosts ASCII-case-insensitively —
// the equality the old lowered-host string key expressed.
func hostFoldEqual(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca >= 'A' && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if cb >= 'A' && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// maxCapacity caps the cache at 64M entries. Clamping before the
// power-of-two rounding also keeps nextPow2 from overflowing into a
// negative (and thus never-terminating) shift for absurd requests.
const maxCapacity = 1 << 26

// NewCache creates a cache holding about capacity decisions. The
// capacity is rounded up to a power of two, clamped to maxCapacity, and
// split evenly across the shards — the effective minimum is one entry
// per shard (shardCount total), so tiny capacities are rounded up too.
func NewCache(capacity int) *Cache {
	if capacity > maxCapacity {
		capacity = maxCapacity
	}
	capacity = nextPow2(capacity)
	c := &Cache{
		perShard:  capacity / shardCount,
		hits:      &obs.Counter{},
		misses:    &obs.Counter{},
		evictions: &obs.Counter{},
	}
	if c.perShard < 1 {
		c.perShard = 1
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[uint64]*cacheEntry)
	}
	return c
}

// nextPow2 rounds n up to the next power of two, bounded to
// [shardCount, maxCapacity].
func nextPow2(n int) int {
	p := shardCount
	for p < n && p < maxCapacity {
		p <<= 1
	}
	return p
}

// SetObs redirects the hit/miss/eviction counters into reg
// ("decision.cache.hits", ".misses", ".evictions"); nil keeps the
// private counters.
func (c *Cache) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.hits = reg.Counter("decision.cache.hits")
	c.misses = reg.Counter("decision.cache.misses")
	c.evictions = reg.Counter("decision.cache.evictions")
}

// FNV-1a 64-bit parameters for the incremental key hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// keyHash folds a request's key side (URL, type, document host and the
// third-party bit — it reads nothing else, so a lookup never derives the
// request's index side) into one 64-bit FNV-1a hash — the map key and the
// shard selector — without assembling any intermediate string. The document host is ASCII-lowered byte by
// byte as it is hashed, matching hostFoldEqual; field boundaries are
// marked with a 0xFF byte (which cannot appear in a host and keeps URL
// and host bytes from sliding across fields).
func keyHash(version uint64, profile int, req *engine.Request) uint64 {
	h := uint64(fnvOffset64)
	h = hashUint64(h, version)
	h = hashUint64(h, uint64(profile))
	url := req.URL
	for i := 0; i < len(url); i++ {
		h = (h ^ uint64(url[i])) * fnvPrime64
	}
	h = (h ^ 0xFF) * fnvPrime64
	h = hashUint64(h, uint64(req.Type))
	doc := req.DocumentHost
	for i := 0; i < len(doc); i++ {
		c := doc[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		h = (h ^ uint64(c)) * fnvPrime64
	}
	h = (h ^ 0xFF) * fnvPrime64
	if req.ThirdParty() {
		h = (h ^ 3) * fnvPrime64
	} else {
		h = (h ^ 1) * fnvPrime64
	}
	return h
}

// hashUint64 folds 8 bytes of v into an FNV-1a state.
func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xFF)) * fnvPrime64
		v >>= 8
	}
	return h
}

// Get returns the cached decision for (version, profile, req), marking
// it most recently used. The request must be sitekey-free (callers gate
// on that). The hit path allocates nothing.
func (c *Cache) Get(version uint64, profile int, req *engine.Request) (engine.Decision, bool) {
	h := keyHash(version, profile, req)
	sh := &c.shards[h&(shardCount-1)]
	sh.mu.Lock()
	e, ok := sh.entries[h]
	if ok && !e.matches(version, profile, req) {
		ok = false // 64-bit collision: treat as a miss, never cross-serve
	}
	if !ok {
		sh.mu.Unlock()
		c.misses.Inc()
		return engine.Decision{}, false
	}
	sh.moveFront(e)
	d := e.d
	sh.mu.Unlock()
	c.hits.Inc()
	return d, true
}

// Peek returns the cached decision without counting a hit or a miss and
// without promoting the entry — pure introspection, used by /v1/explain
// to report whether a request is currently served from cache without
// perturbing the cache's own statistics or LRU order.
func (c *Cache) Peek(version uint64, profile int, req *engine.Request) (engine.Decision, bool) {
	h := keyHash(version, profile, req)
	sh := &c.shards[h&(shardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[h]; ok && e.matches(version, profile, req) {
		return e.d, true
	}
	return engine.Decision{}, false
}

// Put stores a decision, evicting the shard's least recently used entry
// when the shard is full. An entry already present under the same hash
// is overwritten in place — whether it is the same request (refresh) or
// a 64-bit collision (latest wins).
func (c *Cache) Put(version uint64, profile int, req *engine.Request, d engine.Decision) {
	h := keyHash(version, profile, req)
	sh := &c.shards[h&(shardCount-1)]
	sh.mu.Lock()
	if e, ok := sh.entries[h]; ok {
		e.store(version, profile, req, d)
		sh.moveFront(e)
		sh.mu.Unlock()
		return
	}
	if len(sh.entries) >= c.perShard {
		lru := sh.back
		sh.unlink(lru)
		delete(sh.entries, lru.h)
		c.evictions.Inc()
	}
	e := &cacheEntry{h: h}
	e.store(version, profile, req, d)
	sh.entries[h] = e
	sh.pushFront(e)
	sh.mu.Unlock()
}

// Purge drops every entry — the full invalidation run on snapshot swap.
func (c *Cache) Purge() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[uint64]*cacheEntry)
		sh.front, sh.back = nil, nil
		sh.mu.Unlock()
	}
}

// Len returns the current number of cached decisions.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats reports the cache's lifetime counters and current size.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Size:      c.Len(),
	}
}

// CacheStats is a point-in-time view of the decision cache — the wire
// type served by /v1/lists.
type CacheStats = api.CacheStats

// ---- intrusive LRU list ----------------------------------------------------

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = sh.front
	if sh.front != nil {
		sh.front.prev = e
	}
	sh.front = e
	if sh.back == nil {
		sh.back = e
	}
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *cacheShard) moveFront(e *cacheEntry) {
	if sh.front == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
