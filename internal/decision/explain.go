package decision

// Decision provenance over the serving layer: Service.Explain re-runs a
// query with the engine's explain trail enabled and pairs the trail with
// the serving context (snapshot version, cache state), /v1/explain
// exposes it as JSON, /debug/filters serves the per-filter hit
// attribution, and /metrics renders the obs registry plus the
// attribution families in Prometheus text format.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"acceptableads/internal/decision/api"
	"acceptableads/internal/engine"
	"acceptableads/internal/obs"
)

// Explanation is the full provenance of one explained decision: the
// engine's match trail plus the serving-layer context around it.
type Explanation struct {
	// Trail is the engine-level provenance (buckets probed, candidates
	// gated, winning filters with list and line).
	Trail *engine.Trail
	// Snapshot / BuiltAt pin the engine generation the explanation ran
	// against.
	Snapshot uint64
	BuiltAt  time.Time
	// CacheHit reports whether the decision cache currently holds an
	// entry for this request against the pinned snapshot — i.e. whether
	// a plain /v1/match would be served from cache right now. The
	// explain itself never reads the cached decision: it always re-runs
	// the engine so the trail is real, and it peeks (never promotes, hits
	// or misses) so explaining leaves the cache statistics untouched.
	CacheHit bool
	// Profile is the resolved profile name the explanation ran under.
	Profile string

	Decision engine.Decision
}

// ExplainProfile runs req through the current snapshot with the match
// trail enabled, under a named list profile (empty means the default
// full profile). It evaluates in the same default instrumented mode as
// MatchProfile, so the verdict is always identical to what /v1/match
// returns for the same request against the same snapshot, and the trail
// gates exactly the candidates the profile's view would, so "why did
// easylist block this when full did not" is answerable filter by filter.
func (s *Service) ExplainProfile(req *engine.Request, profile string) (Explanation, error) {
	snap := s.cur.Load()
	view, pid, err := snap.view(profile)
	if err != nil {
		return Explanation{}, err
	}
	s.profileHit(view.Name())
	tr := &engine.Trail{}
	d := s.safeMatch(snap, view, req, tr)
	ex := Explanation{
		Trail:    tr,
		Snapshot: snap.Version,
		BuiltAt:  snap.BuiltAt,
		Profile:  view.Name(),
		Decision: d,
	}
	if s.cache != nil && req.Sitekey == "" {
		_, ex.CacheHit = s.cache.Peek(snap.Version, pid, req)
	}
	return ex, nil
}

func (s *Service) handleExplain(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var q api.MatchRequest
	if !decodeJSON(w, r, &q) {
		return
	}
	req, err := toEngineRequest(q.URL, q.Document, q.Type, q.Sitekey)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := ctx.Err(); err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	ex, err := s.ExplainProfile(req, resolveProfile(r, q.Profile))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	obs.DefaultRing.Annotate(ctx, "explain",
		fmt.Sprintf("url=%s verdict=%s snapshot=%d profile=%s", q.URL, ex.Decision.Verdict, ex.Snapshot, ex.Profile))
	res := api.ExplainResponse{
		MatchResponse: toMatchResponse(ex.Decision, false),
		Trail:         ex.Trail,
		Snapshot:      ex.Snapshot,
		BuiltAt:       ex.BuiltAt,
		CacheHit:      ex.CacheHit,
		Profile:       ex.Profile,
		Trace:         string(obs.TraceFrom(ctx)),
	}
	writeJSON(w, res)
}

// FilterStatsResult is the /debug/filters response: the top-N most-hit
// filters of the current snapshot and the per-list attribution rollup.
type FilterStatsResult struct {
	Snapshot uint64                            `json:"snapshot"`
	Filters  int                               `json:"filters"`
	Top      []engine.FilterStat               `json:"top"`
	Lists    map[string]engine.ListAttribution `json:"lists"`
}

// defaultTopFilters bounds /debug/filters output when no ?n= is given.
const defaultTopFilters = 50

func (s *Service) handleFilterStats(_ context.Context, w http.ResponseWriter, r *http.Request) {
	n := defaultTopFilters
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			httpError(w, http.StatusBadRequest, "n must be a non-negative integer")
			return
		}
		n = parsed
	}
	snap := s.cur.Load()
	writeJSON(w, FilterStatsResult{
		Snapshot: snap.Version,
		Filters:  snap.Engine.NumFilters(),
		Top:      snap.Engine.TopFilters(n),
		Lists:    snap.Engine.AttributionByList(),
	})
}

// metricsHandler serves the Prometheus exposition: every instrument of
// reg, then the filter-attribution families derived from the current
// snapshot's per-filter counters:
//
//	aa_filter_hits_total{list="..."}   — effective-filter hits per list
//	aa_filters_loaded{list="..."}      — compiled filters per list
//	aa_filters_fired{list="..."}       — filters with ≥1 hit per list
//	aa_snapshot_version                — current engine generation
//	aa_reload_rejected_total           — canary-rejected reloads
//	aa_rollbacks_total                 — published rollbacks
//	aa_filters_quarantined             — poison-pill quarantined filters
//	aa_ready                           — readiness (1 serving, 0 draining)
//	aa_profile_requests_total{profile="..."} — served requests per profile
//
// and, when an admission controller is wired:
//
//	aa_requests_shed_total             — requests rejected by shedding
//	aa_degraded_mode                   — 1 while serving cache-only
func (s *Service) metricsHandler(reg *obs.Registry, shed *Shedder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			httpError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		if reg != nil {
			reg.WritePrometheus(w) //nolint:errcheck // best-effort scrape output
		}
		snap := s.cur.Load()
		attr := snap.Engine.AttributionByList()
		lists := make([]string, 0, len(attr))
		for name := range attr {
			lists = append(lists, name)
		}
		sort.Strings(lists)
		fmt.Fprint(w, "# TYPE aa_filter_hits_total counter\n")
		for _, name := range lists {
			fmt.Fprintf(w, "aa_filter_hits_total{list=%q} %d\n", name, attr[name].Hits)
		}
		fmt.Fprint(w, "# TYPE aa_filters_loaded gauge\n")
		for _, name := range lists {
			fmt.Fprintf(w, "aa_filters_loaded{list=%q} %d\n", name, attr[name].Filters)
		}
		fmt.Fprint(w, "# TYPE aa_filters_fired gauge\n")
		for _, name := range lists {
			fmt.Fprintf(w, "aa_filters_fired{list=%q} %d\n", name, attr[name].Fired)
		}
		fmt.Fprintf(w, "# TYPE aa_snapshot_version gauge\naa_snapshot_version %d\n", snap.Version)
		fmt.Fprintf(w, "# TYPE aa_reload_rejected_total counter\naa_reload_rejected_total %d\n",
			s.rejected.Value())
		fmt.Fprintf(w, "# TYPE aa_rollbacks_total counter\naa_rollbacks_total %d\n",
			s.rollbacks.Value())
		fmt.Fprintf(w, "# TYPE aa_filters_quarantined gauge\naa_filters_quarantined %d\n",
			snap.Engine.QuarantinedCount())
		fmt.Fprintf(w, "# TYPE aa_ready gauge\naa_ready %d\n", boolGauge(s.Ready()))
		if pr := s.profileRequests(); len(pr) > 0 {
			names := make([]string, 0, len(pr))
			for name := range pr {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprint(w, "# TYPE aa_profile_requests_total counter\n")
			for _, name := range names {
				fmt.Fprintf(w, "aa_profile_requests_total{profile=%q} %d\n", name, pr[name])
			}
		}
		if shed != nil {
			st := shed.Stats()
			fmt.Fprintf(w, "# TYPE aa_requests_shed_total counter\naa_requests_shed_total %d\n", st.Shed)
			fmt.Fprintf(w, "# TYPE aa_degraded_mode gauge\naa_degraded_mode %d\n", boolGauge(st.Degraded))
		}
	})
}

func boolGauge(v bool) int {
	if v {
		return 1
	}
	return 0
}
