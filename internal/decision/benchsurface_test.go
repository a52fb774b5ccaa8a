package decision_test

import (
	"context"
	"net/http"

	"acceptableads/internal/decision"
	"acceptableads/internal/decision/api"
	"acceptableads/internal/easylist"
	"acceptableads/internal/engine"
	"acceptableads/internal/engine/snapbin"
	"acceptableads/internal/filter"
	"acceptableads/internal/histgen"
	"acceptableads/internal/obs"
)

// The service benchmark under bench/ is a module of its own, so the root
// build never compiles it. These declarations name, with the types the
// benchmark relies on, every symbol it uses from this module's internal
// packages: an API change that would break the benchmark fails to compile
// here, under a plain `go test ./...`, instead of at the next benchmark
// run. Nothing is called; keep the list in step with bench/aa-bench.

// engine: the offline oracle, the traced replay and the engine-work pass.
var (
	_ func() *engine.Builder                                            = engine.NewBuilder
	_ func(*engine.Builder, string, *filter.List) error                 = (*engine.Builder).Add
	_ func(*engine.Builder, string, ...string) error                    = (*engine.Builder).Profile
	_ func(*engine.Builder) *engine.Engine                              = (*engine.Builder).Build
	_ func(*engine.Engine, string) (*engine.View, error)                = (*engine.Engine).View
	_ func(*engine.View) string                                         = (*engine.View).Name
	_ func(string, string, filter.ContentType) (*engine.Request, error) = engine.NewRequest
	_ func() engine.MatchOption                                         = engine.WithLinearScan
	_ func(*engine.Trail) engine.MatchOption                            = engine.WithExplain
	_ func(*engine.Decision) *engine.Match                              = (*engine.Decision).BlockedBy
	_ func(*engine.Decision) *engine.Match                              = (*engine.Decision).AllowedBy
	_ func(engine.Verdict) string                                       = engine.Verdict.String
	_ [3]engine.Verdict                                                 = [3]engine.Verdict{engine.NoMatch, engine.Blocked, engine.Allowed}
	_ string                                                            = engine.DefaultProfile

	_ func(*engine.View, *engine.Request, ...engine.MatchOption) engine.Decision = (*engine.View).MatchRequest

	_ = func(m engine.Match) (string, string) { return m.Filter.Raw, m.List }
	_ = func(d engine.Decision) (engine.Verdict, bool) { return d.Verdict, d.DoNotTrack }
	_ = func(t engine.Trail) []int {
		return []int{t.KeywordHashes, t.BucketsProbed, t.HostBucketsProbed, t.SlowScanned,
			t.GateRejected, t.TruncatedCandidates, len(t.Candidates)}
	}
)

// snapbin: the lifecycle's encode and decode spans.
var (
	_ func(*engine.Engine) ([]byte, error) = snapbin.Encode
	_ func([]byte) (*engine.Engine, error) = snapbin.Decode
)

// decision: the three in-process services of the traced run.
var (
	_ func(context.Context, decision.Config) (*decision.Service, error)    = decision.New
	_ func(*decision.Service, decision.HandlerConfig) http.Handler         = decision.Handler
	_ func(*decision.Service) *decision.Snapshot                           = (*decision.Service).Snapshot
	_ func(*decision.Service) *decision.Cache                              = (*decision.Service).Cache
	_ func(*decision.Service, context.Context) (*decision.Snapshot, error) = (*decision.Service).Reload
	_ string                                                               = decision.TraceHeader

	_ func(*decision.Service, *engine.Request, string) (engine.Decision, bool, error) = (*decision.Service).MatchProfile
	_ func(*decision.Service, context.Context, []*engine.Request, string) (
		[]engine.Decision, []bool, *decision.Snapshot, string, error) = (*decision.Service).MatchBatchProfile
	_ func(*decision.Cache, uint64, int, *engine.Request) (engine.Decision, bool) = (*decision.Cache).Get
	_ func(*decision.Cache, uint64, int, *engine.Request, engine.Decision)        = (*decision.Cache).Put

	_ = func(s decision.Snapshot) (*engine.Engine, uint64, []string, bool) {
		return s.Engine, s.Version, s.Profiles, s.BinaryStart
	}
	_ = func() (decision.Config, decision.HandlerConfig) {
		return decision.Config{Source: decision.Files(nil), Profiles: map[string][]string{},
				CacheSize: 0, Obs: obs.NewRegistry(), StateDir: ""},
			decision.HandlerConfig{Obs: obs.NewRegistry(), Shed: decision.NewShedder(decision.ShedConfig{})}
	}
)

// api: the load generator's client and the wire types it checks.
var (
	_ func(string, *http.Client) *api.Client                                           = api.NewClient
	_ func(*api.Client, context.Context, api.MatchRequest) (*api.MatchResponse, error) = (*api.Client).Match
	_ func(*api.Client, context.Context, api.BatchRequest) (*api.BatchResponse, error) = (*api.Client).MatchBatch
	_ func(*api.Client, context.Context) (*api.ReloadResponse, error)                  = (*api.Client).Reload
	_ func(*api.Client, context.Context) (*api.ListsResponse, error)                   = (*api.Client).Lists

	_ = func(c api.Client) string { return c.Trace }
	_ = api.MatchRequest{URL: "", Document: "", Type: "", Profile: ""}
	_ = api.BatchRequest{Requests: nil, Profile: ""}
	_ = api.MatchResponse{Verdict: "", DoNotTrack: false, Cached: false,
		BlockedBy: &api.FilterRef{Filter: "", List: ""}, AllowedBy: nil}
	_ = api.BatchResponse{Results: nil, Snapshot: 0, Profile: "", Cached: 0}
	_ = func(r api.ReloadResponse) uint64 { return r.Snapshot }
	_ = func(r api.ListsResponse) (*api.CacheStats, int64, int64) {
		return r.Stats.Cache, r.Stats.ReloadsRejected, r.Stats.Matches
	}
	_ = func(c api.CacheStats) (int64, int64) { return c.Hits, c.Evictions }
)

// filter, histgen, easylist and obs: fixtures and registries.
var (
	_ func(string, string) *filter.List              = filter.ParseListString
	_ func(string) (filter.ContentType, bool)        = filter.ParseContentType
	_ filter.ContentType                             = filter.TypeOther
	_ func(histgen.Config) (*histgen.History, error) = histgen.Generate
	_ int                                            = easylist.DefaultSize
	_ func() *obs.Registry                           = obs.NewRegistry

	_ = histgen.Config{Seed: 0}
	_ = func(h *histgen.History) (string, any) { return h.Repo.Tip().Content, h.Universe }
	_ = func() string { return easylist.Generate(0, 0).String() }
)
