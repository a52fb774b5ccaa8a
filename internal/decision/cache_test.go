package decision

import (
	"fmt"
	"testing"

	"acceptableads/internal/engine"
	"acceptableads/internal/filter"
)

func mustRequest(t testing.TB, url, doc string) *engine.Request {
	t.Helper()
	req, err := engine.NewRequest(url, doc, filter.TypeScript)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// sameShardRequests generates n requests whose cache keys land in the
// same shard as seed (under version 1, profile 0), for the shard-local
// LRU tests.
func sameShardRequests(t *testing.T, seed *engine.Request, n int) []*engine.Request {
	t.Helper()
	shard := keyHash(1, 0, seed) & (shardCount - 1)
	out := []*engine.Request{seed}
	for i := 0; len(out) < n; i++ {
		r := mustRequest(t, fmt.Sprintf("http://x%d.example.com/s.js", i), "http://doc.example.com/")
		if keyHash(1, 0, r)&(shardCount-1) == shard {
			out = append(out, r)
		}
	}
	return out
}

func TestCacheHitMissEvict(t *testing.T) {
	c := NewCache(shardCount) // one entry per shard
	d := engine.Decision{Verdict: engine.Blocked}

	k1 := mustRequest(t, "http://k1.example.com/a.js", "http://doc.example.com/")
	if _, ok := c.Get(1, 0, k1); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put(1, 0, k1, d)
	got, ok := c.Get(1, 0, k1)
	if !ok || got.Verdict != engine.Blocked {
		t.Fatalf("Get(k1) = %+v, %v", got, ok)
	}

	// Fill k1's shard past capacity: its LRU entry must go.
	same := sameShardRequests(t, k1, 2)
	c.Put(1, 0, same[1], d) // evicts k1 (shard capacity 1)
	if _, ok := c.Get(1, 0, k1); ok {
		t.Error("k1 survived an over-capacity Put in its shard")
	}

	st := c.Stats()
	if st.Evictions == 0 {
		t.Errorf("evictions = 0 after overflow; stats %+v", st)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("counters not moving: %+v", st)
	}

	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len = %d after Purge", c.Len())
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(shardCount * 2) // two entries per shard
	d := engine.Decision{}

	// Three keys landing in one two-entry shard: after touching the
	// oldest, the middle one must be the eviction victim.
	seed := mustRequest(t, "http://lru.example.com/a.js", "http://doc.example.com/")
	same := sameShardRequests(t, seed, 3)
	c.Put(1, 0, same[0], d)
	c.Put(1, 0, same[1], d)
	if _, ok := c.Get(1, 0, same[0]); !ok { // touch: same[0] becomes MRU
		t.Fatal("same[0] should be resident")
	}
	c.Put(1, 0, same[2], d) // shard full: evicts LRU = same[1]
	if _, ok := c.Get(1, 0, same[1]); ok {
		t.Error("same[1] should have been evicted as LRU")
	}
	for i, r := range []*engine.Request{same[0], same[2]} {
		if _, ok := c.Get(1, 0, r); !ok {
			t.Errorf("same-shard request %d should be resident", i)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{
		0: 16, 1: 16, 16: 16, 17: 32, 1000: 1024, 65536: 65536,
		// Bounded above: absurd capacities clamp instead of overflowing
		// the shift.
		maxCapacity: maxCapacity, maxCapacity + 1: maxCapacity, 1 << 62: maxCapacity,
	}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNewCacheClampsCapacity(t *testing.T) {
	c := NewCache(1 << 62)
	if got, want := c.perShard*shardCount, maxCapacity; got != want {
		t.Errorf("capacity = %d, want clamped to %d", got, want)
	}
}

// TestCacheKeyDiscriminates stores a decision under one canonical
// request and asserts that every key-field variant misses: the cache
// key is (version, profile, URL bytes, type, folded document host,
// third-party bit), nothing less.
func TestCacheKeyDiscriminates(t *testing.T) {
	base := mustRequest(t, "http://ads.example.com/a.js", "http://news.example.com/")
	d := engine.Decision{Verdict: engine.Blocked}

	c := NewCache(1 << 10)
	c.Put(1, 0, base, d)
	if _, ok := c.Get(1, 0, base); !ok {
		t.Fatal("base request should hit its own entry")
	}
	if _, ok := c.Get(2, 0, base); ok {
		t.Error("snapshot version not part of the key")
	}
	if _, ok := c.Get(1, 1, base); ok {
		t.Error("profile id not part of the key")
	}
	variants := []*engine.Request{
		mustRequest(t, "http://ads.example.com/b.js", "http://news.example.com/"),
		mustRequest(t, "http://ads.example.com/a.js", "http://ads.example.com/"), // first-party now
	}
	otherType, err := engine.NewRequest("http://ads.example.com/a.js", "http://news.example.com/", filter.TypeImage)
	if err != nil {
		t.Fatal(err)
	}
	variants = append(variants, otherType)
	for i, v := range variants {
		if _, ok := c.Get(1, 0, v); ok {
			t.Errorf("variant %d hit the base entry", i)
		}
	}
	// URL case is significant: $match-case and regex filters match the
	// original-cased URL, so case variants must not share an entry.
	upper := mustRequest(t, "http://ads.example.com/A.JS", "http://news.example.com/")
	if _, ok := c.Get(1, 0, upper); ok {
		t.Error("URL case variants must get distinct keys ($match-case filters)")
	}
	// Document host case is not: $domain restrictions compare hostnames,
	// which are case-insensitive.
	upperDoc := mustRequest(t, "http://ads.example.com/a.js", "http://NEWS.example.com/")
	if _, ok := c.Get(1, 0, upperDoc); !ok {
		t.Error("document host case variants should share an entry")
	}
	// A version/profile pair can never alias another: 12|0 vs 1|20.
	if _, ok := c.Get(12, 0, base); ok {
		t.Error("version 12 aliases version 1")
	}
	c.Put(12, 0, base, d)
	if _, ok := c.Get(1, 20, base); ok {
		t.Error("version/profile boundary ambiguity in the key")
	}
}

// TestCacheHitZeroAlloc pins the zero-allocation cache-hit path: once a
// decision is resident, serving it again — key hash, shard lookup, field
// verification, LRU promotion, verdict copy, profile resolution — must
// not touch the heap. BenchmarkDecisionCacheOn reports the same property
// as 0 allocs/op.
func TestCacheHitZeroAlloc(t *testing.T) {
	svc := newTestService(t, 1024)
	reqs := []*engine.Request{
		mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/"),
		mustRequest(t, "http://track.io/t.js", "http://news.example.org/"),
		mustRequest(t, "http://ads.example.com/acceptable/ad.js", "http://news.example.org/"),
		mustRequest(t, "http://plain.example.org/app.css", "http://plain.example.org/"),
	}
	for _, r := range reqs { // populate
		svc.MatchProfile(r, "")
	}
	for _, r := range reqs { // all resident now
		if _, cached, _ := svc.MatchProfile(r, ""); !cached {
			t.Fatalf("request %s not served from cache on repeat", r.URL)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, r := range reqs {
			svc.MatchProfile(r, "")
		}
	})
	if allocs != 0 {
		t.Errorf("cache-hit MatchProfile allocated %.1f times per run over %d requests, want 0", allocs, len(reqs))
	}
}

// TestCacheCollisionVerified forges a 64-bit hash collision by inserting
// an entry under another request's hash and asserts the field
// verification turns the lookup into a miss instead of cross-serving.
func TestCacheCollisionVerified(t *testing.T) {
	c := NewCache(1 << 10)
	a := mustRequest(t, "http://a.example.com/x.js", "http://doc.example.com/")
	b := mustRequest(t, "http://b.example.com/y.js", "http://doc.example.com/")

	// Plant a's decision under b's hash, as a real collision would.
	h := keyHash(1, 0, b)
	sh := &c.shards[h&(shardCount-1)]
	e := &cacheEntry{h: h}
	e.store(1, 0, a, engine.Decision{Verdict: engine.Blocked})
	sh.entries[h] = e
	sh.pushFront(e)

	if _, ok := c.Get(1, 0, b); ok {
		t.Fatal("collision entry cross-served: field verification missing")
	}
	// Put over the collision: latest wins, b now hits with its own
	// decision.
	c.Put(1, 0, b, engine.Decision{Verdict: engine.Allowed})
	got, ok := c.Get(1, 0, b)
	if !ok || got.Verdict != engine.Allowed {
		t.Fatalf("Get(b) after overwrite = %+v, %v", got, ok)
	}
}
