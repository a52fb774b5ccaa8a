// Package decision is the serving layer over the filter engine: a
// long-lived Service answers single and batched match queries against an
// immutable engine *snapshot*, published via an atomic pointer so that
// list reloads never block readers — in-flight queries finish on the old
// snapshot while new ones see the new engine, the lifecycle real
// deployments need when filter lists update daily under millions of live
// match queries.
//
// In front of the snapshot sits a sharded LRU decision cache (see Cache)
// that is fully invalidated on every swap. Reloads re-fetch lists from
// the Service's Source (typically internal/subscription) with retries and
// keep serving the old snapshot when a reload fails — graceful
// degradation, never an empty engine.
package decision

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acceptableads/internal/decision/api"
	"acceptableads/internal/engine"
	"acceptableads/internal/filter"
	"acceptableads/internal/obs"
	"acceptableads/internal/retry"
	"acceptableads/internal/subscription"
)

// ListInfo describes one list of a snapshot. It is the wire type —
// snapshots hold exactly what /v1/lists serves.
type ListInfo = api.ListInfo

// Snapshot is one immutable engine generation. Everything reachable from
// it is read-only after publication; matching against it from any number
// of goroutines is safe.
type Snapshot struct {
	Engine  *engine.Engine
	Version uint64
	Lists   []ListInfo
	BuiltAt time.Time
	// RollbackOf is the version of the earlier snapshot this one
	// republishes (0 for a fresh build). Versions stay monotonic across
	// rollbacks — a rollback is a new version serving old content — so a
	// stale cache entry can never alias a rolled-back generation.
	RollbackOf uint64
	// WarmStart marks a snapshot rebuilt from persisted state at startup,
	// before the first Source fetch. BinaryStart additionally marks that
	// the engine was decoded from the persisted binary snapshot rather
	// than recompiled from the raw list text.
	WarmStart   bool
	BinaryStart bool
	// Profiles are the engine's profile names, sorted. Every snapshot has
	// at least the implicit full profile (every list).
	Profiles []string
	// profileID maps a profile name to its index in Profiles — the dense
	// id cache keys carry so entries from different profiles never alias.
	profileID map[string]int
}

// view resolves a profile name (empty means the default full profile) on
// this snapshot, returning the engine view and the profile's dense id
// for cache keying. An unknown profile is the caller's error; the
// message names the valid set.
func (snap *Snapshot) view(profile string) (*engine.View, int, error) {
	v, err := snap.Engine.View(profile)
	if err != nil {
		return nil, 0, err
	}
	return v, snap.profileID[v.Name()], nil
}

// Source produces the named filter lists a snapshot is built from. Load
// is called once at startup and again on every reload; it must honor ctx.
type Source interface {
	Load(ctx context.Context) ([]engine.NamedList, error)
}

// Lists is a fixed in-memory Source — tests and single-shot tools.
func Lists(lists ...engine.NamedList) Source { return listsSource(lists) }

type listsSource []engine.NamedList

func (s listsSource) Load(context.Context) ([]engine.NamedList, error) {
	return []engine.NamedList(s), nil
}

// Files is a Source reading filter list text from named files on every
// Load, so a reload picks up edited lists.
func Files(named map[string]string) Source { return filesSource(named) }

type filesSource map[string]string

func (s filesSource) Load(context.Context) ([]engine.NamedList, error) {
	var out []engine.NamedList
	for _, name := range sortedKeys(s) {
		body, err := os.ReadFile(s[name])
		if err != nil {
			return nil, fmt.Errorf("decision: list %s: %w", name, err)
		}
		out = append(out, engine.NamedList{
			Name: name, List: filter.ParseListString(name, string(body)),
		})
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Subscriptions is a Source fetching every list of sub (conditional
// requests, ETag/304) on each Load — how the whitelist actually reaches
// users, now feeding the serving snapshot.
func Subscriptions(sub *subscription.Subscriber, names ...string) Source {
	return &subSource{sub: sub, names: names}
}

type subSource struct {
	sub   *subscription.Subscriber
	names []string
}

func (s *subSource) Load(ctx context.Context) ([]engine.NamedList, error) {
	var out []engine.NamedList
	for _, name := range s.names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		l, err := s.sub.Fetch(name)
		if err != nil {
			return nil, err
		}
		out = append(out, engine.NamedList{Name: name, List: l})
	}
	return out, nil
}

// Config parameterizes a Service.
type Config struct {
	// Source provides the filter lists; required.
	Source Source
	// Profiles declares named list profiles served from the one compiled
	// engine: each maps a profile name to the subset of list names it
	// serves, and the entry "*" expands to every loaded list. The full
	// profile (every list) always exists, declared or not. A profile
	// naming an unknown list fails the build — and therefore the reload —
	// so a list renamed at the source can never silently empty a profile.
	Profiles map[string][]string
	// CacheSize is the decision cache capacity in entries (rounded up to
	// a power of two); 0 disables caching.
	CacheSize int
	// MaxAttempts bounds each reload's Source.Load attempts including the
	// first; 0 means retry.DefaultMaxAttempts.
	MaxAttempts int
	// Seed drives the retry backoff jitter.
	Seed uint64
	// Obs receives service telemetry (cache counters, snapshot version,
	// reload outcomes, match counters); nil disables it.
	Obs *obs.Registry
	// Logger receives structured reload/serve logs; nil means silent.
	Logger *slog.Logger
	// Canary validates every candidate snapshot before it may publish;
	// the zero value applies the default invariants (non-empty engine,
	// parse-error rate and filter-delta bounds) with no probe corpus.
	Canary CanaryConfig
	// KeepSnapshots bounds the rollback ring: the number of generations
	// retained, the serving one included; 0 means DefaultKeepSnapshots,
	// and values below 2 are raised to 2 (a ring of one has nothing to
	// roll back to).
	KeepSnapshots int
	// StateDir, when non-empty, holds the rollback ring: every generation
	// a reload publishes is persisted there, a manifest names the ring and
	// what is serving, and New resumes that snapshot before its first
	// Source fetch.
	StateDir string
}

// DefaultKeepSnapshots is the rollback ring size when Config.KeepSnapshots
// is zero.
const DefaultKeepSnapshots = 4

// Service answers match queries against the current snapshot.
type Service struct {
	cfg   Config
	cur   atomic.Pointer[Snapshot]
	cache *Cache

	// flightMu guards the single-flight reload state: the first caller
	// becomes the leader and runs the rebuild, concurrent callers attach
	// to the in-flight rebuild and receive the leader's result.
	flightMu sync.Mutex
	flight   *reloadFlight

	// publishMu serializes makeCurrent (reloads, warm starts, rollbacks)
	// and guards ring. Readers never take it.
	publishMu sync.Mutex
	ring      []generation // the rollback ring, oldest first; the newest is serving

	// draining flips readiness off ahead of shutdown so load balancers
	// stop routing before the listener drains.
	draining atomic.Bool

	// profileReqs counts served requests per profile name; counters are
	// created lazily on first use (the profile set is only known after a
	// build) and live for the service's lifetime.
	profileReqs sync.Map // string -> *obs.Counter

	matches     *obs.Counter
	reloads     *obs.Counter
	reloadErrs  *obs.Counter
	rejected    *obs.Counter
	coalesced   *obs.Counter
	rollbacks   *obs.Counter
	quarantines *obs.Counter
	persists    *obs.Counter
	warmStarts  *obs.Counter
	binStarts   *obs.Counter
	version     *obs.Gauge
	logger      *slog.Logger
}

// reloadFlight is one in-flight rebuild shared by coalesced callers.
type reloadFlight struct {
	done chan struct{}
	snap *Snapshot
	err  error
}

// New builds the first snapshot and returns a serving Service. With a
// StateDir holding a persisted last-good snapshot, that snapshot is
// rebuilt and served immediately — no network fetch on the startup path;
// the caller refreshes via Reload on its own schedule. Otherwise the
// first snapshot is loaded from cfg.Source.
func New(ctx context.Context, cfg Config) (*Service, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("decision: Config.Source is required")
	}
	s := &Service{cfg: cfg, logger: cfg.Logger}
	if s.logger == nil {
		s.logger = obs.NopLogger()
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry() // the service's own counters, exported nowhere
	}
	s.matches = reg.Counter("decision.matches")
	s.reloads = reg.Counter("decision.reloads")
	s.reloadErrs = reg.Counter("decision.reload.failures")
	s.rejected = reg.Counter("decision.reload.rejected")
	s.coalesced = reg.Counter("decision.reload.coalesced")
	s.rollbacks = reg.Counter("decision.rollbacks")
	s.quarantines = reg.Counter("decision.filter.quarantines")
	s.persists = reg.Counter("decision.state.persists")
	s.warmStarts = reg.Counter("decision.state.warmstarts")
	s.binStarts = reg.Counter("decision.state.warmstarts.binary")
	s.version = reg.Gauge("decision.snapshot.version")
	if cfg.CacheSize > 0 {
		s.cache = NewCache(cfg.CacheSize)
		s.cache.SetObs(cfg.Obs)
	}
	if cfg.StateDir != "" {
		if ok, err := s.warmStart(); ok {
			return s, nil
		} else if err != nil {
			s.logger.Warn("warm start unavailable; loading from source", "err", err)
		}
	}
	if _, err := s.Reload(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// warmStart tries to resume the snapshot the state dir's manifest says
// was serving, loaded by the same loader Rollback uses, at the persisted
// version and rollback provenance. It writes nothing to the state dir.
// It returns (true, nil) on success; (false, nil) when there is no
// persisted state; (false, err) when state exists but is unusable.
func (s *Service) warmStart() (bool, error) {
	m, err := loadManifest(s.cfg.StateDir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	ring := m.generations()
	s.publishMu.Lock()
	snap, err := s.makeCurrent(ring[len(ring)-1], nil, ring[:len(ring)-1],
		provenance{version: m.Version, rollbackOf: m.RollbackOf, warm: true})
	s.publishMu.Unlock()
	if err != nil {
		return false, fmt.Errorf("persisted snapshot unusable: %w", err)
	}
	s.reloads.Inc()
	s.warmStarts.Inc()
	msg := "warm start: recompiled persisted lists"
	if snap.BinaryStart {
		s.binStarts.Inc()
		msg = "warm start: decoded binary snapshot"
	}
	s.logger.Info(msg, "version", snap.Version, "rollbackOf", snap.RollbackOf,
		"filters", snap.Engine.NumFilters(), "builtAt", snap.BuiltAt, "ring", len(ring))
	return true, nil
}

// Snapshot returns the current engine snapshot. The result is immutable;
// callers may match against it for as long as they like, even across
// concurrent reloads.
func (s *Service) Snapshot() *Snapshot { return s.cur.Load() }

// Cache returns the decision cache, nil when caching is disabled.
func (s *Service) Cache() *Cache { return s.cache }

// MatchProfile decides one request against the current snapshot under a
// named list profile (empty means the default full profile), consulting
// the decision cache first. The boolean reports whether the decision was
// served from cache. Decisions are cached per profile — the cache key
// carries the profile's id, so the same URL under two profiles never
// shares an entry. Sitekey-carrying requests bypass the cache (the
// sitekey is not part of the cache key). An unknown profile is an error
// naming the valid set.
func (s *Service) MatchProfile(req *engine.Request, profile string) (engine.Decision, bool, error) {
	snap := s.cur.Load()
	view, pid, err := snap.view(profile)
	if err != nil {
		return engine.Decision{}, false, err
	}
	s.countMatches(view.Name(), 1)
	if s.cache == nil || req.Sitekey != "" {
		return s.safeMatch(snap, view, req, nil), false, nil
	}
	if d, ok := s.cache.Get(snap.Version, pid, req); ok {
		return d, true, nil
	}
	d := s.safeMatch(snap, view, req, nil)
	s.cache.Put(snap.Version, pid, req, d)
	return d, false, nil
}

// matchCached answers a request from the decision cache only — the
// degraded-mode path under sustained overload: a hit is served without
// touching the engine, a miss reports !ok and is shed by the caller.
// An unknown profile is a miss: degraded mode sheds rather than explains.
func (s *Service) matchCached(req *engine.Request, profile string) (engine.Decision, bool) {
	if s.cache == nil || req.Sitekey != "" {
		return engine.Decision{}, false
	}
	snap := s.cur.Load()
	if snap == nil {
		return engine.Decision{}, false
	}
	view, pid, err := snap.view(profile)
	if err != nil {
		return engine.Decision{}, false
	}
	d, ok := s.cache.Get(snap.Version, pid, req)
	if ok {
		s.countMatches(view.Name(), 1)
	}
	return d, ok
}

// profileHit bumps the per-profile request counter.
func (s *Service) profileHit(name string) { s.profileCounter(name).Inc() }

// countMatches books n decisions made under one profile — a batch's
// bookkeeping in one add per counter instead of one per decision.
func (s *Service) countMatches(profile string, n int) {
	if n == 0 {
		return
	}
	s.matches.Add(int64(n))
	s.profileCounter(profile).Add(int64(n))
}

// profileCounter returns the profile's request counter, creating it on
// first use. The counter map only ever grows by known profile names, so
// its cardinality is bounded by the configured profile set.
func (s *Service) profileCounter(name string) *obs.Counter {
	if c, ok := s.profileReqs.Load(name); ok {
		return c.(*obs.Counter)
	}
	c, _ := s.profileReqs.LoadOrStore(name, &obs.Counter{})
	return c.(*obs.Counter)
}

// maxQuarantineRetries bounds how many quarantine-and-retry rounds one
// request may trigger; each round disables at least one filter, so this
// only binds when panics keep coming from filters the prober cannot
// reproduce.
const maxQuarantineRetries = 3

// contained runs eval, one engine evaluation of req on snap, under the
// poison-pill policy every evaluation the service makes shares: a panic
// quarantines the panicking filter(s) — an atomic per-filter disable
// shared by every evaluation path, and, since the prober runs on the full
// engine, by every profile view at once — records each on the flight
// recorder, purges the decision cache (entries may predate the
// quarantine) and retries. It reports false when the request must fail
// open: no culprit can be identified, or panics outlast
// maxQuarantineRetries rounds. Under the acceptable-ads threat model,
// serving one request unfiltered beats crash-looping the decision service
// for everyone. op names the evaluation in logs.
func (s *Service) contained(snap *Snapshot, req *engine.Request, op string, eval func()) bool {
	for round := 0; panics(eval); round++ {
		if round >= maxQuarantineRetries {
			s.logger.Error(op+" still panicking after quarantine rounds; failing open",
				"url", req.URL, "rounds", round)
			return false
		}
		quarantined := snap.Engine.QuarantinePanicking(req)
		if len(quarantined) == 0 {
			s.logger.Error(op+" panicked but no filter reproduces it; failing open",
				"url", req.URL)
			return false
		}
		s.quarantines.Add(int64(len(quarantined)))
		for _, q := range quarantined {
			s.logger.Error("filter quarantined after panic",
				"filter", q.Filter, "list", q.List, "line", q.Line, "url", req.URL)
			obs.DefaultRing.Annotate(context.Background(), "filter.quarantined",
				fmt.Sprintf("list=%s line=%d filter=%s", q.List, q.Line, q.Filter))
		}
		if s.cache != nil {
			// Cached decisions may have been produced by the quarantined
			// filter; drop them all rather than serve its ghosts.
			s.cache.Purge()
		}
	}
	return true
}

// panics runs f under recover and reports whether it panicked.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// safeMatch evaluates req on view under the poison-pill policy, with the
// explain trail when tr is non-nil; the trail is reset before every round
// so a retry after a quarantine never reports provenance from the
// panicked attempt. A request that fails open decides NoMatch.
func (s *Service) safeMatch(snap *Snapshot, view *engine.View, req *engine.Request, tr *engine.Trail) (d engine.Decision) {
	s.contained(snap, req, "match", func() {
		if tr == nil {
			d = view.MatchRequest(req)
			return
		}
		*tr = engine.Trail{}
		d = view.MatchRequest(req, engine.WithExplain(tr))
	})
	return d
}

// MatchBatchProfile decides a batch of requests under one named profile
// for the whole batch (empty means the default full profile) against one
// consistent snapshot. It returns that snapshot, so callers report the
// exact engine generation the decisions came from (a reload may land
// mid-batch; the batch keeps matching on the snapshot it pinned), and
// the resolved profile name, so they report exactly what they were
// served. The boolean slice marks which decisions were served from
// cache. ctx is checked periodically so a large batch against
// pathological filters is cut off by the caller's deadline instead of
// running to completion; on cancellation the partial results are
// discarded and ctx's error returned.
func (s *Service) MatchBatchProfile(ctx context.Context, reqs []*engine.Request, profile string) ([]engine.Decision, []bool, *Snapshot, string, error) {
	snap := s.cur.Load()
	view, pid, err := snap.view(profile)
	if err != nil {
		return nil, nil, snap, "", err
	}
	out := make([]engine.Decision, len(reqs))
	cached := make([]bool, len(reqs))
	for i, req := range reqs {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				s.countMatches(view.Name(), i)
				return nil, nil, snap, view.Name(), err
			}
		}
		if s.cache == nil || req.Sitekey != "" {
			out[i] = s.safeMatch(snap, view, req, nil)
			continue
		}
		if d, ok := s.cache.Get(snap.Version, pid, req); ok {
			out[i], cached[i] = d, true
			continue
		}
		out[i] = s.safeMatch(snap, view, req, nil)
		s.cache.Put(snap.Version, pid, req, out[i])
	}
	s.countMatches(view.Name(), len(reqs))
	return out, cached, snap, view.Name(), nil
}

// ElemHideCSSProfile returns the element-hiding stylesheet the current
// snapshot injects for a page on docHost under a named profile (empty
// means the default full profile): only hide rules (and hide exceptions)
// from the profile's lists reach the stylesheet.
func (s *Service) ElemHideCSSProfile(docHost, profile string) (string, error) {
	snap := s.cur.Load()
	view, _, err := snap.view(profile)
	if err != nil {
		return "", err
	}
	s.profileHit(view.Name())
	return view.ElemHideCSS(docHost), nil
}

// Diff evaluates one request under two named profiles of the current
// snapshot in a single engine pass and reports both verdicts, whether
// they flip, and the responsible filter when they do — "was this request
// unblocked by the Acceptable Ads exception list, and by which line" as
// one API call. Diffs bypass the decision cache (they are a measurement
// tool, not a hot serving path) but carry the same poison-pill
// containment as matches.
func (s *Service) Diff(req *engine.Request, profileA, profileB string) (engine.DiffResult, *Snapshot, error) {
	snap := s.cur.Load()
	va, _, err := snap.view(profileA)
	if err != nil {
		return engine.DiffResult{}, snap, err
	}
	vb, _, err := snap.view(profileB)
	if err != nil {
		return engine.DiffResult{}, snap, err
	}
	s.matches.Inc()
	s.profileHit(va.Name())
	s.profileHit(vb.Name())
	var res engine.DiffResult
	if !s.contained(snap, req, "diff", func() { res = snap.Engine.Diff(req, va, vb) }) {
		res = engine.DiffResult{
			A: engine.DiffSide{Profile: va.Name(), Verdict: engine.NoMatch.String()},
			B: engine.DiffSide{Profile: vb.Name(), Verdict: engine.NoMatch.String()},
		}
	}
	return res, snap, nil
}

// Reload fetches the lists from the Source (with retries), builds a fresh
// engine, validates it through the canary, publishes it as the next
// snapshot and invalidates the decision cache. Readers are never blocked:
// queries in flight keep matching on the old snapshot. On failure — fetch
// error, build error, or canary rejection — the old snapshot stays
// published and the error is returned; serving degrades to stale lists,
// never to none.
//
// Concurrent Reload calls coalesce: the first caller runs the rebuild,
// later callers attach to it and receive the leader's snapshot (or
// error) instead of queueing N identical rebuilds back to back. A caller
// whose ctx expires while attached returns ctx's error; the rebuild
// itself keeps running on the leader's behalf.
//
// The reload runs under a "decision.reload" span correlated to ctx's
// trace id; a failed reload lands in the span's error histogram and
// annotates the trace ring.
func (s *Service) Reload(ctx context.Context) (*Snapshot, error) {
	s.flightMu.Lock()
	if f := s.flight; f != nil {
		s.flightMu.Unlock()
		s.coalesced.Inc()
		select {
		case <-f.done:
			return f.snap, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &reloadFlight{done: make(chan struct{})}
	s.flight = f
	s.flightMu.Unlock()

	sp, ctx := obs.StartSpanCtx(ctx, s.cfg.Obs, s.logger, "decision.reload")
	snap, err := s.reload(ctx)
	if err != nil {
		sp.Fail(err)
		obs.DefaultRing.Annotate(ctx, "reload.failed", err.Error())
	} else {
		obs.DefaultRing.Annotate(ctx, "reload.published",
			fmt.Sprintf("version=%d filters=%d", snap.Version, snap.Engine.NumFilters()))
	}
	sp.End()

	f.snap, f.err = snap, err
	s.flightMu.Lock()
	s.flight = nil
	s.flightMu.Unlock()
	close(f.done)
	return snap, err
}

func (s *Service) reload(ctx context.Context) (*Snapshot, error) {
	var lists []engine.NamedList
	policy := retry.Policy{MaxAttempts: s.cfg.MaxAttempts, Seed: s.cfg.Seed}
	attempts, err := policy.Do(ctx, "decision.reload", func(ctx context.Context) error {
		var lerr error
		lists, lerr = s.cfg.Source.Load(ctx)
		return lerr
	})
	if err != nil {
		s.reloadErrs.Inc()
		s.logger.Warn("list reload failed; keeping current snapshot",
			"attempts", attempts, "err", err)
		return nil, fmt.Errorf("decision: reload: %w", err)
	}
	if len(lists) == 0 {
		s.reloadErrs.Inc()
		return nil, fmt.Errorf("decision: reload: source returned no lists")
	}

	eng, err := buildEngine(lists, s.cfg.Profiles)
	if err != nil {
		s.reloadErrs.Inc()
		return nil, fmt.Errorf("decision: reload: %w", err)
	}

	s.publishMu.Lock()
	next, err := s.makeCurrent(generation{persistGen: persistGen{BuiltAt: time.Now()}, eng: eng},
		lists, s.ring, provenance{})
	s.publishMu.Unlock()
	if err != nil {
		// The canary quarantined the candidate: it is never published,
		// and the serving snapshot stands.
		s.rejected.Inc()
		s.reloadErrs.Inc()
		s.logger.Warn("reload rejected by canary; keeping current snapshot", "err", err)
		return nil, fmt.Errorf("decision: reload rejected: %w", err)
	}
	s.reloads.Inc()
	return next, nil
}

// buildEngine compiles lists into a frozen engine, registering every
// declared profile ("*" expands to all loaded lists) before the freeze.
func buildEngine(lists []engine.NamedList, profiles map[string][]string) (*engine.Engine, error) {
	b := engine.NewBuilder()
	for _, nl := range lists {
		if err := b.Add(nl.Name, nl.List); err != nil {
			return nil, err
		}
	}
	for _, name := range sortedKeys(profiles) {
		members := profiles[name]
		expanded := make([]string, 0, len(members))
		for _, m := range members {
			if m == "*" {
				expanded = expanded[:0]
				for _, nl := range lists {
					expanded = append(expanded, nl.Name)
				}
				break
			}
			expanded = append(expanded, m)
		}
		if err := b.Profile(name, expanded...); err != nil {
			return nil, fmt.Errorf("profile %s: %w", name, err)
		}
	}
	return b.Build(), nil
}

// provenance is how a generation becomes current. The zero value is a
// reload's fresh build, published as the next version.
type provenance struct {
	version    uint64 // the version a warm start resumes; 0 takes the next one
	rollbackOf uint64 // the generation an earlier snapshot republishes
	warm       bool   // resumed from the state dir at startup
}

// makeCurrent is the one way a generation becomes the serving snapshot;
// the caller holds publishMu. A fresh build's gen carries its engine and
// lists the raw lists it was compiled from; any other gen is loaded. In
// order, it
//   - runs the canary: against the serving snapshot for a fresh build,
//     the structural checks alone otherwise;
//   - persists, unless this is a warm start: a fresh build's files, then
//     the manifest of the new ring;
//   - publishes the engine as the next snapshot and purges the cache;
//   - makes the ring below plus gen, trimmed to KeepSnapshots.
//
// A load failure or canary rejection is returned and changes nothing.
func (s *Service) makeCurrent(gen generation, lists []engine.NamedList, below []generation, p provenance) (*Snapshot, error) {
	cur := s.cur.Load()
	old := cur
	if p != (provenance{}) {
		old = nil
	}
	eng, binary := gen.eng, false
	if eng == nil {
		var err error
		if eng, lists, binary, err = s.load(&gen.persistGen); err != nil {
			return nil, err
		}
	}
	if err := s.cfg.Canary.validate(eng, lists, old); err != nil {
		return nil, err
	}

	next := &Snapshot{
		Engine: eng, BuiltAt: gen.BuiltAt, Version: max(p.version, 1), RollbackOf: p.rollbackOf,
		WarmStart: p.warm, BinaryStart: p.warm && binary, Profiles: eng.Profiles(),
	}
	if cur != nil {
		next.Version = cur.Version + 1
	}
	if gen.Version == 0 {
		gen.Version = next.Version // a fresh build is named by its first version
	}
	for _, name := range eng.Lists() {
		next.Lists = append(next.Lists, ListInfo{Name: name, Filters: eng.ListFilters(name)})
	}
	next.profileID = make(map[string]int, len(next.Profiles))
	for i, name := range next.Profiles {
		next.profileID[name] = i
	}

	if n := len(below) + 1 - max(cmp.Or(s.cfg.KeepSnapshots, DefaultKeepSnapshots), 2); n > 0 {
		below = below[n:]
	}
	// A new array, so no generation that left the ring stays reachable.
	ring := append(append(make([]generation, 0, len(below)+1), below...), gen)
	if s.cfg.StateDir != "" && !p.warm {
		s.persist(next, lists, ring)
	}

	// Engine telemetry joins the service's registry before the snapshot
	// can be matched against (nil Obs leaves it off).
	eng.SetMetrics(s.cfg.Obs)
	s.cur.Store(next)
	if s.cache != nil {
		s.cache.Purge()
	}
	s.version.Set(int64(next.Version))
	s.ring = ring
	s.logger.Info("snapshot published",
		"version", next.Version, "filters", eng.NumFilters(), "lists", len(next.Lists),
		"rollbackOf", next.RollbackOf, "warmStart", next.WarmStart,
		"binary", next.BinaryStart, "ring", len(ring))
	return next, nil
}

// Rollback republishes the generation that preceded the one currently
// serving, as a new (monotonically versioned) snapshot, and purges the
// decision cache. Repeated rollbacks walk further back through the ring;
// it fails when no older generation is retained, or when the previous
// generation cannot be loaded from the state dir or fails the canary,
// and then changes nothing. With a state dir the rollback is persisted, so it survives a
// restart. The escape hatch for a bad list revision that passed the
// canary.
func (s *Service) Rollback(ctx context.Context) (*Snapshot, error) {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	n := len(s.ring)
	if n < 2 {
		return nil, fmt.Errorf("decision: rollback: no older generation retained")
	}
	target := s.ring[n-2]
	next, err := s.makeCurrent(target, nil, s.ring[:n-2], provenance{rollbackOf: target.Version})
	if err != nil {
		return nil, fmt.Errorf("decision: rollback to version %d: %w", target.Version, err)
	}
	s.rollbacks.Inc()
	obs.DefaultRing.Annotate(ctx, "rollback.published",
		fmt.Sprintf("version=%d rollbackOf=%d", next.Version, next.RollbackOf))
	return next, nil
}

// SetDraining flips the service's drain flag: a draining service reports
// not ready (load balancers stop routing) while continuing to answer
// in-flight and straggler queries during the grace window.
func (s *Service) SetDraining(v bool) { s.draining.Store(v) }

// Ready reports whether the service should receive traffic: a snapshot
// is published and the service is not draining.
func (s *Service) Ready() bool {
	return !s.draining.Load() && s.cur.Load() != nil
}

// Stats reports the service's lifetime counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Matches:          s.matches.Value(),
		Reloads:          s.reloads.Value(),
		ReloadFailures:   s.reloadErrs.Value(),
		ReloadsRejected:  s.rejected.Value(),
		ReloadsCoalesced: s.coalesced.Value(),
		Rollbacks:        s.rollbacks.Value(),
		Ready:            s.Ready(),
	}
	if snap := s.cur.Load(); snap != nil {
		st.SnapshotVersion = snap.Version
		st.QuarantinedFilters = snap.Engine.QuarantinedCount()
	}
	if pr := s.profileRequests(); len(pr) > 0 {
		st.ProfileRequests = pr
	}
	if s.cache != nil {
		c := s.cache.Stats()
		st.Cache = &c
	}
	return st
}

// profileRequests snapshots the per-profile request counters.
func (s *Service) profileRequests() map[string]int64 {
	out := map[string]int64{}
	s.profileReqs.Range(func(k, v any) bool {
		out[k.(string)] = v.(*obs.Counter).Value()
		return true
	})
	return out
}

// Stats is a point-in-time view of the service — the wire type served by
// /v1/lists.
type Stats = api.Stats
