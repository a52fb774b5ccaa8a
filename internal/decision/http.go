package decision

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"acceptableads/internal/decision/api"
	"acceptableads/internal/domainutil"
	"acceptableads/internal/engine"
	"acceptableads/internal/filter"
	"acceptableads/internal/obs"
)

// DefaultRequestTimeout bounds one API request end to end when
// HandlerConfig.RequestTimeout is 0.
const DefaultRequestTimeout = 5 * time.Second

// maxBatch bounds one /v1/match-batch request; larger batches are a
// client error, not a server stall.
const maxBatch = 4096

// HandlerConfig parameterizes the HTTP surface.
type HandlerConfig struct {
	// RequestTimeout is the per-request deadline applied to every
	// endpoint (reloads included); 0 means DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Obs receives per-endpoint request counters and latency histograms
	// ("decision.http.match.latency", ...); nil disables them.
	Obs *obs.Registry
	// Shed is the admission controller in front of the API endpoints;
	// nil admits everything. Health probes and /metrics are never shed.
	Shed *Shedder
}

// Handler serves the decision API over svc:
//
//	POST /v1/match        — one request in, one decision out
//	POST /v1/match-batch  — up to 4096 requests against one snapshot
//	POST /v1/explain      — one request in, decision + full match trail out
//	POST /v1/diff         — one request under two profiles, single pass
//	POST /v1/elemhide     — element-hiding stylesheet for a document host
//	GET  /v1/lists        — snapshot introspection (lists, version, cache)
//	POST /v1/reload       — rebuild the snapshot from the list source
//	POST /v1/rollback     — republish the previous retained snapshot
//	GET  /healthz         — process liveness (always 200 while serving)
//	GET  /readyz          — traffic readiness (503 when draining/unpublished)
//	GET  /metrics         — Prometheus text exposition + attribution families
//	GET  /debug/filters   — top-N per-filter hit attribution
//
// The decision endpoints (match, match-batch, explain, elemhide) accept
// a list profile — the ?profile= query parameter, or the body's profile
// field, the former winning — selecting which subset of loaded lists
// decides the request; empty means the full profile. An unknown profile
// is a 400 whose message names the valid set. All wire types live in the
// api subpackage, shared with api.Client.
//
// Every endpoint carries a trace id: an inbound X-AA-Trace header is
// honored (so a caller can stitch our spans into its own trace), one is
// minted otherwise, and the id is echoed back in the X-AA-Trace response
// header and attached to the request's context for span correlation and
// trace-ring annotations.
//
// With a Shedder configured, the API endpoints run behind weighted
// admission: a request that does not fit the concurrency limit waits in
// the bounded queue and is shed with 429 + Retry-After when the queue is
// full or its deadline expires. Under sustained overload the shedder
// degrades /v1/match to cache-only service (hits answered, misses shed).
// A panicking handler is contained per request: 500, counter, trace-ring
// annotation — the process keeps serving.
func Handler(svc *Service, cfg HandlerConfig) http.Handler {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	// Weights approximate relative cost so one admitted batch consumes
	// the capacity of several single matches, and reloads — full list
	// fetch + engine build — cannot stampede.
	mux := http.NewServeMux()
	mux.Handle("/v1/match", endpoint(cfg, endpointSpec{
		name: "match", method: http.MethodPost, weight: 1, onShed: svc.matchCacheOnly,
	}, svc.handleMatch))
	mux.Handle("/v1/match-batch", endpoint(cfg, endpointSpec{
		name: "batch", method: http.MethodPost, weight: 8,
	}, svc.handleMatchBatch))
	mux.Handle("/v1/explain", endpoint(cfg, endpointSpec{
		name: "explain", method: http.MethodPost, weight: 2,
	}, svc.handleExplain))
	mux.Handle("/v1/diff", endpoint(cfg, endpointSpec{
		name: "diff", method: http.MethodPost, weight: 2,
	}, svc.handleDiff))
	mux.Handle("/v1/elemhide", endpoint(cfg, endpointSpec{
		name: "elemhide", method: http.MethodPost, weight: 1,
	}, svc.handleElemHide))
	mux.Handle("/v1/lists", endpoint(cfg, endpointSpec{
		name: "lists", method: http.MethodGet, weight: 1,
	}, svc.handleLists))
	mux.Handle("/v1/reload", endpoint(cfg, endpointSpec{
		name: "reload", method: http.MethodPost, weight: 16,
	}, svc.handleReload))
	mux.Handle("/v1/rollback", endpoint(cfg, endpointSpec{
		name: "rollback", method: http.MethodPost, weight: 4,
	}, svc.handleRollback))
	mux.Handle("/metrics", svc.metricsHandler(cfg.Obs, cfg.Shed))
	mux.Handle("/debug/filters", endpoint(cfg, endpointSpec{
		name: "filters", method: http.MethodGet, weight: 1,
	}, svc.handleFilterStats))
	// Probes bypass admission and the request deadline entirely: an
	// overloaded or mid-reload server must still answer its orchestrator,
	// or shedding turns into a restart loop.
	mux.HandleFunc("/healthz", svc.handleHealthz)
	mux.HandleFunc("/readyz", svc.handleReadyz)
	return mux
}

// TraceHeader is the request/response header carrying the trace id.
const TraceHeader = "X-AA-Trace"

// maxTraceIDLen bounds an inbound trace id; longer values are replaced
// with a minted one rather than echoed back verbatim.
const maxTraceIDLen = 64

// endpointSpec describes one API endpoint to the endpoint wrapper.
type endpointSpec struct {
	name   string
	method string
	// weight is the endpoint's admission cost against the Shedder's
	// capacity (clamped to the capacity, so heavy endpoints stay
	// servable under small limits).
	weight int64
	// onShed, when non-nil, is the degraded-mode fallback tried before a
	// shed is turned into a 429; it reports whether it answered the
	// request. Only consulted while the Shedder is in degraded mode.
	onShed func(ctx context.Context, w http.ResponseWriter, r *http.Request) bool
}

// endpoint wraps one handler with method gating, the per-request
// deadline, trace propagation, weighted admission, panic containment and
// per-endpoint telemetry.
func endpoint(cfg HandlerConfig, spec endpointSpec,
	h func(ctx context.Context, w http.ResponseWriter, r *http.Request)) http.Handler {
	var requests *obs.Counter
	var errors *obs.Counter
	var panics *obs.Counter
	var latency *obs.Histogram
	if cfg.Obs != nil {
		requests = cfg.Obs.Counter("decision.http." + spec.name + ".requests")
		errors = cfg.Obs.Counter("decision.http." + spec.name + ".errors")
		panics = cfg.Obs.Counter("decision.http." + spec.name + ".panics")
		latency = cfg.Obs.Histogram("decision.http." + spec.name + ".latency")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != spec.method {
			w.Header().Set("Allow", spec.method)
			httpError(w, http.StatusMethodNotAllowed, "use "+spec.method)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), cfg.RequestTimeout)
		defer cancel()
		trace := obs.TraceID(r.Header.Get(TraceHeader))
		if trace == "" || len(trace) > maxTraceIDLen {
			trace = obs.NewTraceID()
		}
		ctx = obs.ContextWithTrace(ctx, trace)
		// Root span for parent/child correlation: no registry (the
		// endpoint's own latency histogram below already times it), but
		// child spans — the reload span, notably — link back to its id.
		sp, ctx := obs.StartSpanCtx(ctx, nil, nil, "decision.http."+spec.name)
		w.Header().Set(TraceHeader, string(trace))
		start := time.Now()
		sw := &statusCatcher{ResponseWriter: w, status: http.StatusOK}
		if err := cfg.Shed.Acquire(ctx, spec.weight); err != nil {
			// Degraded mode first: under sustained overload a cache hit is
			// still worth serving — it costs no engine time.
			answered := false
			if spec.onShed != nil && cfg.Shed.Degraded() {
				answered = spec.onShed(ctx, sw, r.WithContext(ctx))
			}
			if !answered {
				sw.Header().Set("Retry-After", "1")
				httpError(sw, http.StatusTooManyRequests, "overloaded: "+err.Error())
			}
		} else {
			serveContained(h, ctx, sw, r.WithContext(ctx), spec.name, panics)
			cfg.Shed.Release(spec.weight)
		}
		sp.End()
		if requests != nil {
			requests.Inc()
			if sw.status >= 400 {
				errors.Inc()
			}
			latency.Observe(time.Since(start))
		}
	})
}

// serveContained runs one handler under recover: a panic is contained to
// this request — 500 (when nothing was written yet), a panic counter and
// a trace-ring annotation — instead of killing the process.
func serveContained(h func(ctx context.Context, w http.ResponseWriter, r *http.Request),
	ctx context.Context, sw *statusCatcher, r *http.Request, name string, panics *obs.Counter) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if panics != nil {
			panics.Inc()
		}
		obs.DefaultRing.Annotate(ctx, "http.panic",
			fmt.Sprintf("endpoint=%s panic=%v", name, rec))
		slog.Error("request handler panicked",
			"endpoint", name, "panic", rec, "stack", string(debug.Stack()))
		if !sw.wrote {
			httpError(sw, http.StatusInternalServerError, "internal error")
		}
	}()
	h(ctx, sw, r)
}

type statusCatcher struct {
	http.ResponseWriter
	status int
	// wrote tracks whether anything reached the wire, so the panic
	// recovery knows if a 500 can still be sent.
	wrote bool
}

func (w *statusCatcher) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusCatcher) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// ---- wire conversion -------------------------------------------------------
//
// The wire types themselves live in the api package — the versioned
// contract both the handlers here and api.Client marshal. This section
// only converts between engine values and those types.

// resolveProfile picks the profile for a request: the ?profile= query
// parameter wins, the body field is the fallback, empty means the
// server's default full profile.
func resolveProfile(r *http.Request, body string) string {
	if q := r.URL.Query().Get("profile"); q != "" {
		return q
	}
	return body
}

// toEngineRequest validates and converts one query; malformed input
// fails here, at the edge, instead of deep inside matching.
func toEngineRequest(url, document, typeName, sitekey string) (*engine.Request, error) {
	typ := filter.TypeOther
	if typeName != "" {
		t, ok := filter.ParseContentType(typeName)
		if !ok {
			return nil, fmt.Errorf("unknown content type %q", typeName)
		}
		typ = t
	}
	req, err := engine.NewRequest(url, document, typ)
	if err != nil {
		return nil, err
	}
	req.Sitekey = sitekey
	return req, nil
}

func toMatchResponse(d engine.Decision, cached bool) api.MatchResponse {
	res := api.MatchResponse{
		Verdict:    d.Verdict.String(),
		DoNotTrack: d.DoNotTrack,
		Cached:     cached,
	}
	if m := d.BlockedBy(); m != nil {
		res.BlockedBy = &api.FilterRef{Filter: m.Filter.Raw, List: m.List}
	}
	if m := d.AllowedBy(); m != nil {
		res.AllowedBy = &api.FilterRef{Filter: m.Filter.Raw, List: m.List}
	}
	return res
}

// profileError maps a profile-resolution failure to 400: the valid set
// is in the message, the client picked a name outside it.
func profileError(w http.ResponseWriter, err error) {
	httpError(w, http.StatusBadRequest, err.Error())
}

// ---- endpoints -------------------------------------------------------------

func (s *Service) handleMatch(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var q api.MatchRequest
	if !decodeJSON(w, r, &q) {
		return
	}
	req, err := toEngineRequest(q.URL, q.Document, q.Type, q.Sitekey)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A request that sat in the queue past its deadline is not worth a
	// match; single matches are otherwise cheap enough to run to the end.
	if err := ctx.Err(); err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	d, cached, err := s.MatchProfile(req, resolveProfile(r, q.Profile))
	if err != nil {
		profileError(w, err)
		return
	}
	obs.DefaultRing.Annotate(ctx, "match",
		fmt.Sprintf("url=%s verdict=%s cached=%t", q.URL, d.Verdict, cached))
	writeJSON(w, toMatchResponse(d, cached))
}

func (s *Service) handleMatchBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var q api.BatchRequest
	if !decodeJSON(w, r, &q) {
		return
	}
	if len(q.Requests) > maxBatch {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds the %d-request limit", len(q.Requests), maxBatch))
		return
	}
	out := api.BatchResponse{Results: make([]api.MatchResponse, len(q.Requests))}
	reqs := make([]*engine.Request, 0, len(q.Requests))
	idx := make([]int, 0, len(q.Requests))
	for i := range q.Requests {
		if q.Requests[i].Profile != "" {
			// One batch, one profile: a per-entry profile would silently
			// fragment the batch across engine views.
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("request %d sets a per-entry profile; use the batch-level profile field", i))
			return
		}
		req, err := toEngineRequest(q.Requests[i].URL, q.Requests[i].Document, q.Requests[i].Type, q.Requests[i].Sitekey)
		if err != nil {
			out.Results[i] = api.MatchResponse{Error: err.Error()}
			continue
		}
		reqs = append(reqs, req)
		idx = append(idx, i)
	}
	decisions, cached, snap, profile, err := s.MatchBatchProfile(ctx, reqs, resolveProfile(r, q.Profile))
	if err != nil {
		if ctx.Err() != nil {
			httpError(w, http.StatusServiceUnavailable, "batch cut off by deadline: "+err.Error())
		} else {
			profileError(w, err)
		}
		return
	}
	out.Snapshot = snap.Version
	out.Profile = profile
	for j, d := range decisions {
		out.Results[idx[j]] = toMatchResponse(d, cached[j])
		if cached[j] {
			out.Cached++
		}
	}
	obs.DefaultRing.Annotate(ctx, "match-batch",
		fmt.Sprintf("requests=%d cached=%d snapshot=%d profile=%s", len(q.Requests), out.Cached, snap.Version, profile))
	writeJSON(w, out)
}

func (s *Service) handleElemHide(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var q api.ElemHideRequest
	if !decodeJSON(w, r, &q) {
		return
	}
	if q.Document == "" {
		httpError(w, http.StatusBadRequest, "document is required")
		return
	}
	if err := ctx.Err(); err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	css, err := s.ElemHideCSSProfile(domainutil.HostOf(q.Document), resolveProfile(r, q.Profile))
	if err != nil {
		profileError(w, err)
		return
	}
	writeJSON(w, api.ElemHideResponse{CSS: css})
}

func (s *Service) handleDiff(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var q api.DiffRequest
	if !decodeJSON(w, r, &q) {
		return
	}
	if q.ProfileA == "" || q.ProfileB == "" {
		httpError(w, http.StatusBadRequest, "profileA and profileB are required")
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
	res, snap, err := s.Diff(req, q.ProfileA, q.ProfileB)
	if err != nil {
		profileError(w, err)
		return
	}
	obs.DefaultRing.Annotate(ctx, "diff",
		fmt.Sprintf("url=%s a=%s/%s b=%s/%s flipped=%t",
			q.URL, res.A.Profile, res.A.Verdict, res.B.Profile, res.B.Verdict, res.Flipped))
	writeJSON(w, api.DiffResponse{
		DiffResult: res,
		Snapshot:   snap.Version,
		Trace:      string(obs.TraceFrom(ctx)),
	})
}

func (s *Service) handleLists(_ context.Context, w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	writeJSON(w, api.ListsResponse{
		Snapshot:   snap.Version,
		BuiltAt:    snap.BuiltAt,
		Filters:    snap.Engine.NumFilters(),
		WarmStart:  snap.WarmStart,
		RollbackOf: snap.RollbackOf,
		Lists:      snap.Lists,
		Profiles:   snap.Profiles,
		Stats:      s.Stats(),
	})
}

func (s *Service) handleReload(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	snap, err := s.Reload(ctx)
	if err != nil {
		// The old snapshot keeps serving; tell the caller the reload
		// itself failed (canary rejections included).
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	writeJSON(w, api.ReloadResponse{
		Snapshot: snap.Version,
		Filters:  snap.Engine.NumFilters(),
		Lists:    snap.Lists,
	})
}

func (s *Service) handleRollback(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	snap, err := s.Rollback(ctx)
	if err != nil {
		// No retained predecessor: a conflict with the service's state,
		// not a server fault.
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, api.RollbackResponse{
		Snapshot:   snap.Version,
		RollbackOf: snap.RollbackOf,
		Filters:    snap.Engine.NumFilters(),
		Lists:      snap.Lists,
	})
}

// matchCacheOnly is /v1/match's degraded-mode fallback: answer from the
// decision cache without touching the engine, report false (shed) on a
// miss. Parse errors and unknown profiles also report false — the 429 is
// as good an answer and keeps the fallback allocation-light.
func (s *Service) matchCacheOnly(ctx context.Context, w http.ResponseWriter, r *http.Request) bool {
	var q api.MatchRequest
	if decodeBody(w, r, &q) != nil {
		return false
	}
	req, err := toEngineRequest(q.URL, q.Document, q.Type, q.Sitekey)
	if err != nil {
		return false
	}
	d, ok := s.matchCached(req, resolveProfile(r, q.Profile))
	if !ok {
		return false
	}
	w.Header().Set("X-AA-Degraded", "cache-only")
	writeJSON(w, toMatchResponse(d, true))
	return true
}

// handleHealthz is process liveness: the handler answering at all is the
// signal. Probes skip admission control and the request deadline.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz is traffic readiness: 200 while a snapshot is published
// and the service is not draining, 503 otherwise — the load balancer's
// cue to stop routing before shutdown drains the listener.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if !s.Ready() {
		reason := "draining"
		if s.cur.Load() == nil {
			reason = "no snapshot published"
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "unavailable", "reason": reason}) //nolint:errcheck
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

// ---- plumbing --------------------------------------------------------------

// decodeBody decodes the request body as exactly one JSON value: unknown
// fields are rejected, and so is anything but whitespace after the value
// (Decode alone stops at the end of the first value, so a second object
// or trailing junk would otherwise be served as if well-formed).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeBody(w, r, v); err != nil {
		httpError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck
}
