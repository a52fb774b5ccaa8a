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
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"acceptableads/internal/decision/api"
	"acceptableads/internal/engine"
	"acceptableads/internal/engine/snapbin"
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

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortedProfileNames(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortStrings(out []string) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
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
	// KeepSnapshots bounds the in-memory ring of previously published
	// fresh snapshots available to Rollback; 0 means
	// DefaultKeepSnapshots, and values below 2 are raised to 2 (a ring
	// of one has nothing to roll back to).
	KeepSnapshots int
	// StateDir, when non-empty, enables warm-start persistence: every
	// successful publish writes the raw lists there, and New serves the
	// persisted last-good snapshot before its first Source fetch.
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

	// publishMu serializes snapshot publication (fresh builds, warm
	// starts, rollbacks) and guards history. Readers never take it.
	publishMu sync.Mutex
	history   []*Snapshot // ring of fresh published snapshots, oldest first

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
	s.matches = &obs.Counter{}
	s.reloads = &obs.Counter{}
	s.reloadErrs = &obs.Counter{}
	s.rejected = &obs.Counter{}
	s.coalesced = &obs.Counter{}
	s.rollbacks = &obs.Counter{}
	s.quarantines = &obs.Counter{}
	s.persists = &obs.Counter{}
	s.warmStarts = &obs.Counter{}
	s.binStarts = &obs.Counter{}
	s.version = &obs.Gauge{}
	if cfg.Obs != nil {
		s.matches = cfg.Obs.Counter("decision.matches")
		s.reloads = cfg.Obs.Counter("decision.reloads")
		s.reloadErrs = cfg.Obs.Counter("decision.reload.failures")
		s.rejected = cfg.Obs.Counter("decision.reload.rejected")
		s.coalesced = cfg.Obs.Counter("decision.reload.coalesced")
		s.rollbacks = cfg.Obs.Counter("decision.rollbacks")
		s.quarantines = cfg.Obs.Counter("decision.filter.quarantines")
		s.persists = cfg.Obs.Counter("decision.state.persists")
		s.warmStarts = cfg.Obs.Counter("decision.state.warmstarts")
		s.binStarts = cfg.Obs.Counter("decision.state.warmstarts.binary")
		s.version = cfg.Obs.Gauge("decision.snapshot.version")
	}
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

// warmStart tries to publish a snapshot from the persisted state dir. It
// prefers the binary engine snapshot — decoded in milliseconds, no list
// parsing or compilation — and falls back to recompiling the persisted
// raw lists when the snapshot is absent, format-skewed, corrupt, or was
// compiled under a different profile configuration. It returns (true,
// nil) on success; (false, nil) when there is no persisted state;
// (false, err) when state exists but is unusable.
func (s *Service) warmStart() (bool, error) {
	m, err := loadManifest(s.cfg.StateDir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	if s.warmStartBinary(m) {
		return true, nil
	}
	lists, err := loadPersistedLists(s.cfg.StateDir, m)
	if err != nil {
		return false, err
	}
	eng, infos, err := buildEngine(lists, s.cfg.Profiles)
	if err != nil {
		return false, err
	}
	// Structural canary only: there is no serving snapshot to differ
	// from, and differential probes skip themselves with old == nil.
	if err := s.cfg.Canary.validate(eng, lists, nil); err != nil {
		return false, fmt.Errorf("persisted snapshot rejected: %w", err)
	}
	snap := s.publish(eng, infos, m.BuiltAt, func(next *Snapshot) {
		next.WarmStart = true
	})
	s.warmStarts.Inc()
	s.logger.Info("warm start: recompiled persisted lists",
		"persistedVersion", m.Version, "version", snap.Version,
		"filters", eng.NumFilters(), "builtAt", m.BuiltAt)
	return true, nil
}

// warmStartBinary attempts the fast warm-start path: decode the binary
// engine snapshot the manifest references and publish it. Any
// disqualification — no snapshot, codec version skew, a profile
// configuration that differs from the one the snapshot was compiled
// with, decode or checksum failure, canary rejection — is logged and
// returns false so the caller recompiles from the raw lists instead.
func (s *Service) warmStartBinary(m *persistManifest) bool {
	if m.Snapshot == "" {
		return false
	}
	if m.SnapshotFormat != snapbin.FormatVersion {
		s.logger.Warn("binary snapshot format skew; recompiling from raw lists",
			"persisted", m.SnapshotFormat, "decoder", snapbin.FormatVersion)
		return false
	}
	if !profilesEqual(m.Profiles, s.cfg.Profiles) {
		s.logger.Warn("binary snapshot compiled under different profiles; recompiling from raw lists")
		return false
	}
	buf, err := os.ReadFile(filepath.Join(s.cfg.StateDir, m.Snapshot))
	if err != nil {
		s.logger.Warn("binary snapshot unreadable; recompiling from raw lists", "err", err)
		return false
	}
	eng, err := snapbin.Decode(buf)
	if err != nil {
		s.logger.Warn("binary snapshot rejected by decoder; recompiling from raw lists", "err", err)
		return false
	}
	// The canary replays its structural checks and probe corpus against
	// the decoded engine before it is published; with no raw lists and no
	// serving snapshot the parse-rate and differential checks self-skip.
	if err := s.cfg.Canary.validate(eng, nil, nil); err != nil {
		s.logger.Warn("binary snapshot rejected by canary; recompiling from raw lists", "err", err)
		return false
	}
	infos := make([]ListInfo, 0, len(m.Lists))
	for _, pl := range m.Lists {
		infos = append(infos, ListInfo{Name: pl.Name, Filters: eng.ListFilters(pl.Name)})
	}
	snap := s.publish(eng, infos, m.BuiltAt, func(next *Snapshot) {
		next.WarmStart = true
		next.BinaryStart = true
	})
	s.warmStarts.Inc()
	s.binStarts.Inc()
	s.logger.Info("warm start: decoded binary snapshot",
		"persistedVersion", m.Version, "version", snap.Version,
		"filters", eng.NumFilters(), "builtAt", m.BuiltAt,
		"bytes", len(buf))
	return true
}

// profilesEqual reports whether two profile configurations declare the
// same profiles with the same members in the same order. nil and empty
// maps are equal: both mean "only the implicit full profile".
func profilesEqual(a, b map[string][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for name, am := range a {
		bm, ok := b[name]
		if !ok || len(am) != len(bm) {
			return false
		}
		for i := range am {
			if am[i] != bm[i] {
				return false
			}
		}
	}
	return true
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

	eng, infos, err := buildEngine(lists, s.cfg.Profiles)
	if err != nil {
		s.reloadErrs.Inc()
		return nil, fmt.Errorf("decision: reload: %w", err)
	}

	// The canary gate: a candidate that fails any invariant or probe is
	// quarantined — never published — and the serving snapshot stands.
	if err := s.cfg.Canary.validate(eng, lists, s.cur.Load()); err != nil {
		s.rejected.Inc()
		s.reloadErrs.Inc()
		s.logger.Warn("reload rejected by canary; keeping current snapshot", "err", err)
		return nil, fmt.Errorf("decision: reload rejected: %w", err)
	}

	next := s.publish(eng, infos, time.Now(), nil)

	if s.cfg.StateDir != "" {
		if err := persistSnapshot(s.cfg.StateDir, next, lists, s.cfg.Profiles); err != nil {
			// Persistence is best-effort: the snapshot is already serving,
			// a failed write only costs the next warm start.
			s.logger.Warn("snapshot persist failed", "version", next.Version, "err", err)
		} else {
			s.persists.Inc()
		}
	}
	return next, nil
}

// buildEngine compiles lists into a frozen engine plus its ListInfos,
// registering every declared profile ("*" expands to all loaded lists)
// before the freeze.
func buildEngine(lists []engine.NamedList, profiles map[string][]string) (*engine.Engine, []ListInfo, error) {
	b := engine.NewBuilder()
	for _, nl := range lists {
		if err := b.Add(nl.Name, nl.List); err != nil {
			return nil, nil, err
		}
	}
	for _, name := range sortedProfileNames(profiles) {
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
			return nil, nil, fmt.Errorf("profile %s: %w", name, err)
		}
	}
	eng := b.Build()
	infos := make([]ListInfo, 0, len(lists))
	for _, nl := range lists {
		infos = append(infos, ListInfo{Name: nl.Name, Filters: eng.ListFilters(nl.Name)})
	}
	return eng, infos, nil
}

// publish stores a snapshot built from eng/infos as the next generation:
// version assignment, cache purge, gauge update and rollback-ring
// bookkeeping all happen under publishMu. decorate, when non-nil, may
// mark the snapshot (warm start, rollback provenance) before it is
// published; fresh builds (nil RollbackOf) enter the rollback ring.
func (s *Service) publish(eng *engine.Engine, infos []ListInfo, builtAt time.Time, decorate func(*Snapshot)) *Snapshot {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	next := &Snapshot{Engine: eng, Lists: infos, BuiltAt: builtAt, Version: 1}
	next.Profiles = eng.Profiles()
	next.profileID = profileIDs(next.Profiles)
	if old := s.cur.Load(); old != nil {
		next.Version = old.Version + 1
	}
	if decorate != nil {
		decorate(next)
	}
	// Engine telemetry joins the service's registry before the snapshot
	// can be matched against (nil Obs leaves it off).
	eng.SetMetrics(s.cfg.Obs)
	s.cur.Store(next)
	if s.cache != nil {
		s.cache.Purge()
	}
	s.reloads.Inc()
	s.version.Set(int64(next.Version))
	if next.RollbackOf == 0 {
		s.history = append(s.history, next)
		keep := s.cfg.KeepSnapshots
		if keep == 0 {
			keep = DefaultKeepSnapshots
		}
		if keep < 2 {
			keep = 2
		}
		if len(s.history) > keep {
			s.history = append(s.history[:0], s.history[len(s.history)-keep:]...)
		}
	}
	s.logger.Info("snapshot published",
		"version", next.Version, "filters", eng.NumFilters(), "lists", len(infos),
		"rollbackOf", next.RollbackOf, "warmStart", next.WarmStart,
		"binary", next.BinaryStart)
	return next
}

// Rollback republishes the snapshot that preceded the one currently
// serving, as a new (monotonically versioned) generation, and purges the
// decision cache. Repeated rollbacks walk further back through the ring
// of retained snapshots; it fails when no older snapshot is retained.
// The escape hatch for a bad list revision that passed the canary.
func (s *Service) Rollback(ctx context.Context) (*Snapshot, error) {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	cur := s.cur.Load()
	if cur == nil {
		return nil, fmt.Errorf("decision: rollback: no snapshot published")
	}
	// Resolve the content generation currently serving: a rollback serves
	// some earlier fresh build, so walking back starts from that build.
	origin := cur.Version
	if cur.RollbackOf != 0 {
		origin = cur.RollbackOf
	}
	idx := -1
	for i, snap := range s.history {
		if snap.Version == origin {
			idx = i
			break
		}
	}
	if idx <= 0 {
		return nil, fmt.Errorf("decision: rollback: no older snapshot retained (serving content of version %d)", origin)
	}
	target := s.history[idx-1]
	next := &Snapshot{
		Engine:     target.Engine,
		Lists:      target.Lists,
		BuiltAt:    target.BuiltAt,
		Version:    cur.Version + 1,
		RollbackOf: target.Version,
		Profiles:   target.Profiles,
		profileID:  target.profileID,
	}
	s.cur.Store(next)
	if s.cache != nil {
		s.cache.Purge()
	}
	// Pop the abandoned generation off the ring: rolling forward past a
	// known-bad snapshot again would require a fresh reload, not another
	// rollback.
	s.history = s.history[:idx]
	s.rollbacks.Inc()
	s.version.Set(int64(next.Version))
	obs.DefaultRing.Annotate(ctx, "rollback.published",
		fmt.Sprintf("version=%d rollbackOf=%d", next.Version, next.RollbackOf))
	s.logger.Info("rollback published",
		"version", next.Version, "rollbackOf", next.RollbackOf,
		"abandoned", origin, "filters", next.Engine.NumFilters())
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

// profileIDs assigns each profile name its index in the sorted name
// slice — the dense id carried by cache keys.
func profileIDs(names []string) map[string]int {
	out := make(map[string]int, len(names))
	for i, n := range names {
		out[n] = i
	}
	return out
}

// Stats is a point-in-time view of the service — the wire type served by
// /v1/lists.
type Stats = api.Stats
