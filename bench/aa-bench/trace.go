package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"acceptableads/internal/decision"
	"acceptableads/internal/decision/api"
	"acceptableads/internal/engine"
	"acceptableads/internal/engine/snapbin"
	"acceptableads/internal/filter"
	"acceptableads/internal/obs"
)

// Spans. The traced run times the calls into each layer's public
// functions from outside; nothing under internal/ or cmd/ is instrumented.
type spanName uint8

const (
	spWireCall spanName = iota // api.Client call over loopback, reply parsed
	spServe                    // decision.Handler's ServeHTTP inside that call
	spUnrolled                 // the same call replayed layer by layer
	spDecode
	spPrepare
	spCacheGet
	spMatch
	spCachePut
	spEncode
	spMatchBatch // Service.MatchBatchProfile / MatchProfile on prepared requests
	spParse
	spBuild
	spSnapEncode
	spSnapDecode
	spNewCold
	spReload
	spNewWarm
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"wire.call", "decision.http.serve", "unrolled.call", "api.decode", "engine.prepare",
	"decision.cache.get", "engine.match", "decision.cache.put", "api.encode", "decision.match_batch",
	"filter.parse", "engine.build", "snapbin.encode", "snapbin.decode",
	"decision.new_cold", "decision.reload", "decision.new_warm",
}

// span is one timed interval. Spans of one call share its id.
type span struct {
	name       spanName
	parent     int32 // index of the span that caused it, -1 for a root
	call       int32 // -1 for lifecycle spans
	start, end int64 // ns since the trace began
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	off   bool // pre-load: run the code, record nothing
	spans []span

	// The serve span is timed on the server's goroutine.
	mu     sync.Mutex
	serves []span
}

func (t *tracer) begin(name spanName, parent, call int32) int32 {
	if t.off {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, call: call, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.t0))
	}
}

// serveSpans wraps the decision handler; the call id travels in the
// X-AA-Trace header the client sets.
func (t *tracer) serveSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := int64(time.Since(t.t0))
		h.ServeHTTP(w, r)
		end := int64(time.Since(t.t0))
		id, err := strconv.Atoi(r.Header.Get(decision.TraceHeader))
		if err != nil {
			return // pre-load and reloads carry no call id
		}
		t.mu.Lock()
		t.serves = append(t.serves, span{name: spServe, call: int32(id), start: start, end: end})
		t.mu.Unlock()
	})
}

// finish attaches the serve spans to their wire.call parents and returns
// every span's self time: its duration minus its children's.
func (t *tracer) finish() []int64 {
	wire := make(map[int32]int32)
	for i, s := range t.spans {
		if s.name == spWireCall {
			wire[s.call] = int32(i)
		}
	}
	for _, s := range t.serves {
		s.parent = wire[s.call]
		t.spans = append(t.spans, s)
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// write stores the trace: one row per span, columns as named.
func (t *tracer) write(path string, cfg runConfig, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	names, _ := json.Marshal(spanNames[:]) // strings always marshal
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"names":%s,`, cfg.workload, cfg.seed, names)
	w.WriteString(`"columns":["name","call","parent","start_ns","end_ns","self_ns"],"spans":[` + "\n")
	var buf []byte
	for i, s := range t.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		for j, v := range []int64{int64(s.name), int64(s.call), int64(s.parent), s.start, s.end, self[i]} {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		w.Write(buf) //nolint:errcheck // Flush reports the first write error
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// How many calls the traced replay makes. A page call carries about 64
// decisions and costs milliseconds; single calls need more to settle.
func tracedCalls(workload string) int {
	if workload == wlSingleZipf {
		return 20000
	}
	return 2000
}

const lifecycleRounds = 9

// traced is the in-process side of a traced run: three services built
// alike from the run's list files. A serves whole calls over loopback, B
// is walked layer by layer through the public functions the handler
// calls, C is entered at Service.MatchBatchProfile; every call goes to
// all three, so their caches evolve alike.
type traced struct {
	tr  *tracer
	svc [3]*decision.Service
	lg  *loadgen // drives A

	// Every explainEvery-th engine evaluation is kept for the passes that
	// count the engine's work and allocations.
	evals  int
	sample []evalSample

	matchBy [3]struct{ ns, n float64 } // engine.match time by verdict

	reqBytes, respBytes int64
	decisions           int64
	diverged            int // calls on which B's answers differed from A's

	// What the attribution sanity checks look at: engine.match self time
	// as a share of unrolled.call, and the handler's and the wire's
	// overhead together as a share of wire.call.
	matchShare, edgeShare float64
}

type evalSample struct {
	view *engine.View
	req  *engine.Request
}

const explainEvery = 16

func (e *env) newService(ctx context.Context, stateDir string) (*decision.Service, error) {
	return decision.New(ctx, decision.Config{
		Source:    decision.Files(map[string]string{listEasy: e.lists.easy, listWhite: e.lists.white}),
		Profiles:  map[string][]string{profileEasy: {listEasy}},
		CacheSize: 1 << 16,
		Obs:       obs.NewRegistry(),
		StateDir:  stateDir,
	})
}

// serveInProcess serves svc's decision API on loopback the way aa-serve
// does — default shedder, telemetry registry — with the handler passed
// through wrap, and returns its base URL and what stops it.
func serveInProcess(svc *decision.Service, wrap func(http.Handler) http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: wrap(decision.Handler(svc, decision.HandlerConfig{
		Obs:  obs.NewRegistry(),
		Shed: decision.NewShedder(decision.ShedConfig{}),
	}))}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after Close
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Close() //nolint:errcheck // the caller has nothing in flight
		<-served
	}, nil
}

// runTraced makes the traced run and adds the per-layer metrics to res.
func runTraced(ctx context.Context, e *env, res *result) error {
	if err := e.fix.pushVariant(e.lists, variantA); err != nil {
		return err
	}
	tr := &tracer{t0: time.Now()}
	if err := e.lifecycle(ctx, tr, res.metrics); err != nil {
		return err
	}

	t := &traced{tr: tr}
	for i := range t.svc {
		dir, err := os.MkdirTemp(e.tmp, "traced-state-")
		if err != nil {
			return err
		}
		if t.svc[i], err = e.newService(ctx, dir); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
	}
	base, stop, err := serveInProcess(t.svc[0], tr.serveSpans)
	if err != nil {
		return err
	}
	defer stop()
	t.lg = newLoadgen(e.w, e.fix, e.lists, base)

	tr.off = true
	for _, c := range e.w.preload() {
		if err := t.call(ctx, -1, c); err != nil {
			return err
		}
	}
	tr.off = false
	runtime.GC() // the pre-load's garbage is not the replay's

	// The replay takes the connections' streams turn by turn; under
	// reload_churn it reloads as often per call as the untraced window did.
	streams := make([]*stream, e.w.conns)
	for c := range streams {
		streams[c] = e.w.stream(c)
	}
	n := tracedCalls(e.w.name)
	reloadEvery := 0
	if e.w.name == wlReloadChurn {
		reloadEvery = int(res.callsPerSlice)
	}
	began := time.Now()
	for i := 0; i < n; i++ {
		if reloadEvery > 0 && i%reloadEvery == reloadEvery/3 {
			if err := t.reload(ctx); err != nil {
				return err
			}
		}
		if err := t.call(ctx, int32(i), streams[i%len(streams)].next()); err != nil {
			return err
		}
	}
	elapsed := time.Since(began)

	res.attempted += t.lg.attempted.Load()
	res.failed += t.lg.failed.Load()
	res.mismatches += t.lg.mismatches
	if res.firstErr == nil {
		res.firstErr = t.lg.firstErr
	}
	self := tr.finish()
	t.metrics(res, self, elapsed)
	t.engineWork(res.metrics)
	path := filepath.Join(e.dirs.out, "trace-"+e.w.name+".json")
	if err := tr.write(path, e.cfg, self); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("trace: %d spans of %d calls in %s", len(tr.spans), n, path))
	return t.sanity(e.w.name, res)
}

// reload pushes the other variant and reloads all three services.
func (t *traced) reload(ctx context.Context) error {
	if _, err := t.lg.reload(ctx, 0); err != nil {
		return err
	}
	for _, svc := range t.svc[1:] {
		if _, err := svc.Reload(ctx); err != nil {
			return fmt.Errorf("traced reload: %w", err)
		}
	}
	return nil
}

// call sends c whole to A, walks it through B and enters it at C.
func (t *traced) call(ctx context.Context, id int32, c *call) error {
	tr := t.tr
	client := t.lg.conns[0]
	client.Trace = ""
	if id >= 0 {
		client.Trace = strconv.Itoa(int(id))
	}
	version := uint64(1 + t.lg.completed.Load())
	sp := tr.begin(spWireCall, -1, id)
	rep, _, err := t.lg.send(ctx, 0, c)
	tr.end(sp)
	t.lg.attempted.Add(1)
	if err != nil {
		t.lg.fail(err)
		return fmt.Errorf("traced call %d: %w", id, err)
	}
	if err := t.lg.verify(c, rep, version, version); err != nil {
		return fmt.Errorf("traced call %d: %w", id, err)
	}

	// The body the client put on the wire.
	var body []byte
	if c.batch != nil {
		body, err = json.Marshal(c.batch)
	} else {
		body, err = json.Marshal(c.single)
	}
	if err != nil {
		return err
	}
	reqs, profile, results, out, err := t.unrolled(id, c, body)
	if err != nil {
		return fmt.Errorf("unrolled call %d: %w", id, err)
	}

	sp = tr.begin(spMatchBatch, -1, id)
	if c.batch != nil {
		_, _, _, _, err = t.svc[2].MatchBatchProfile(ctx, reqs, profile)
	} else {
		_, _, err = t.svc[2].MatchProfile(reqs[0], profile)
	}
	tr.end(sp)
	if err != nil {
		return err
	}

	if !tr.off {
		t.reqBytes += int64(len(body))
		t.respBytes += int64(len(out))
		t.decisions += int64(len(results))
		for i := range results {
			if flat(results[i]) != flat(rep.results[i]) {
				t.diverged++
				break
			}
		}
	}
	return nil
}

// unrolled walks one call through service B the way the handler does, one
// span per public function called. It returns the prepared requests and
// the profile they were decided under, the results and the encoded reply.
func (t *traced) unrolled(id int32, c *call, body []byte) ([]*engine.Request, string, []api.MatchResponse, []byte, error) {
	tr := t.tr
	root := tr.begin(spUnrolled, -1, id)
	sp := tr.begin(spDecode, root, id)
	var entries []api.MatchRequest
	var profile string
	var err error
	if c.batch != nil {
		var q api.BatchRequest
		err = json.Unmarshal(body, &q)
		entries, profile = q.Requests, q.Profile
	} else {
		var q api.MatchRequest
		err = json.Unmarshal(body, &q)
		entries, profile = []api.MatchRequest{q}, q.Profile
	}
	tr.end(sp)
	if err != nil {
		return nil, "", nil, nil, err
	}
	snap := t.svc[1].Snapshot()
	cache := t.svc[1].Cache()
	view, err := snap.Engine.View(profile)
	if err != nil {
		return nil, "", nil, nil, err
	}
	// The cache keys on the profile's index in the snapshot's sorted
	// profile list; with any other id B's entries would spread over the
	// shards differently and B would evict differently from A.
	pid := sort.SearchStrings(snap.Profiles, view.Name())
	reqs := make([]*engine.Request, len(entries))
	results := make([]api.MatchResponse, len(entries))
	cached := 0
	for i, q := range entries {
		sp = tr.begin(spPrepare, root, id)
		req, err := prepare(q)
		tr.end(sp)
		if err != nil {
			return nil, "", nil, nil, err
		}
		reqs[i] = req
		sp = tr.begin(spCacheGet, root, id)
		d, hit := cache.Get(snap.Version, pid, req)
		tr.end(sp)
		if hit {
			cached++
		} else {
			sp = tr.begin(spMatch, root, id)
			d = view.MatchRequest(req)
			tr.end(sp)
			if sp >= 0 {
				t.matchBy[d.Verdict].ns += float64(tr.spans[sp].end - tr.spans[sp].start)
				t.matchBy[d.Verdict].n++
				if t.evals++; t.evals%explainEvery == 0 {
					t.sample = append(t.sample, evalSample{view: view, req: req})
				}
			}
			sp = tr.begin(spCachePut, root, id)
			cache.Put(snap.Version, pid, req, d)
			tr.end(sp)
		}
		results[i] = wireResponse(d, hit)
	}
	sp = tr.begin(spEncode, root, id)
	var out []byte
	if c.batch != nil {
		out, err = json.Marshal(api.BatchResponse{Results: results, Snapshot: snap.Version, Profile: view.Name(), Cached: cached})
	} else {
		out, err = json.Marshal(results[0])
	}
	tr.end(sp)
	tr.end(root)
	return reqs, profile, results, out, err
}

// flatResponse is a reply with its filter references flattened, so two
// replies compare with ==.
type flatResponse struct {
	verdict            verdict
	doNotTrack, cached bool
}

func flat(r api.MatchResponse) flatResponse {
	return flatResponse{verdict: verdictOfReply(&r), doNotTrack: r.DoNotTrack, cached: r.Cached}
}

// wireResponse is the handler's conversion of a decision to its wire form.
func wireResponse(d engine.Decision, cached bool) api.MatchResponse {
	r := api.MatchResponse{Verdict: d.Verdict.String(), DoNotTrack: d.DoNotTrack, Cached: cached}
	if m := d.BlockedBy(); m != nil {
		r.BlockedBy = &api.FilterRef{Filter: m.Filter.Raw, List: m.List}
	}
	if m := d.AllowedBy(); m != nil {
		r.AllowedBy = &api.FilterRef{Filter: m.Filter.Raw, List: m.List}
	}
	return r
}

// lifecycle records the spans of building and reloading a service,
// lifecycleRounds times each, and writes their medians.
func (e *env) lifecycle(ctx context.Context, tr *tracer, m map[string]float64) error {
	var snapshotBytes int
	for round := 0; round < lifecycleRounds; round++ {
		sp := tr.begin(spParse, -1, -1)
		easy := filter.ParseListString(listEasy, e.fix.easy[variantA])
		white := filter.ParseListString(listWhite, e.fix.white)
		tr.end(sp)

		sp = tr.begin(spBuild, -1, -1)
		eng, err := build(easy, white)
		tr.end(sp)
		if err != nil {
			return err
		}

		sp = tr.begin(spSnapEncode, -1, -1)
		buf, err := snapbin.Encode(eng)
		tr.end(sp)
		if err != nil {
			return err
		}
		snapshotBytes = len(buf)
		sp = tr.begin(spSnapDecode, -1, -1)
		_, err = snapbin.Decode(buf)
		tr.end(sp)
		if err != nil {
			return err
		}

		dir, err := os.MkdirTemp(e.tmp, "lifecycle-state-")
		if err != nil {
			return err
		}
		sp = tr.begin(spNewCold, -1, -1)
		svc, err := e.newService(ctx, dir)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(spReload, -1, -1)
		_, err = svc.Reload(ctx)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(spNewWarm, -1, -1)
		warm, err := e.newService(ctx, dir)
		tr.end(sp)
		if err != nil {
			return err
		}
		if !warm.Snapshot().BinaryStart {
			return fmt.Errorf("lifecycle: the warm start did not take the binary snapshot path")
		}
	}
	ms := func(name spanName) float64 {
		var vs []float64
		for _, s := range tr.spans {
			if s.name == name {
				vs = append(vs, float64(s.end-s.start)/1e6)
			}
		}
		return median(vs)
	}
	m["filter.parse_ms"] = ms(spParse)
	m["engine.build_ms"] = ms(spBuild)
	m["snapbin.encode_ms"] = ms(spSnapEncode)
	m["snapbin.decode_ms"] = ms(spSnapDecode)
	m["snapbin.snapshot_mb"] = float64(snapshotBytes) / (1 << 20)
	m["decision.new_cold_ms"] = ms(spNewCold)
	m["decision.new_warm_ms"] = ms(spNewWarm)
	// What a reload spends outside parsing, compiling and encoding:
	// reading the files, the canary, persisting, the swap and the purge.
	m["decision.reload_other_ms"] = ms(spReload) - ms(spParse) - ms(spBuild) - ms(spSnapEncode)
	return nil
}

// metrics turns the replay's spans into per-layer metrics.
func (t *traced) metrics(res *result, self []int64, elapsed time.Duration) {
	var sum, cnt, selfSum [numSpanNames]float64
	for i, s := range t.tr.spans {
		if s.call < 0 {
			continue
		}
		sum[s.name] += float64(s.end - s.start)
		selfSum[s.name] += float64(self[i])
		cnt[s.name]++
	}
	m := res.metrics
	per := func(total, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	calls, decisions := cnt[spWireCall], float64(t.decisions)
	m["engine.prepare_us_per_decision"] = per(sum[spPrepare], decisions) / 1e3
	m["engine.match_us_per_eval"] = per(sum[spMatch], cnt[spMatch]) / 1e3
	m["engine.match_nomatch_us"] = per(t.matchBy[engine.NoMatch].ns, t.matchBy[engine.NoMatch].n) / 1e3
	m["engine.match_blocked_us"] = per(t.matchBy[engine.Blocked].ns, t.matchBy[engine.Blocked].n) / 1e3
	m["engine.match_allowed_us"] = per(t.matchBy[engine.Allowed].ns, t.matchBy[engine.Allowed].n) / 1e3
	m["engine.evals_per_decision"] = per(cnt[spMatch], decisions)
	m["api.decode_us_per_decision"] = per(sum[spDecode], decisions) / 1e3
	m["api.encode_us_per_decision"] = per(sum[spEncode], decisions) / 1e3
	m["api.request_bytes_per_decision"] = per(float64(t.reqBytes), decisions)
	m["api.response_bytes_per_decision"] = per(float64(t.respBytes), decisions)
	m["decision.cache.get_ns"] = per(sum[spCacheGet], cnt[spCacheGet])
	m["decision.cache.put_ns"] = per(sum[spCachePut], cnt[spCachePut])
	m["decision.match_batch_us_per_decision"] = per(sum[spMatchBatch], decisions) / 1e3
	m["decision.http.serve_us_per_call"] = per(sum[spServe], calls) / 1e3
	m["decision.http.overhead_us_per_call"] = per(sum[spServe]-sum[spUnrolled], calls) / 1e3
	m["wire.call_us"] = per(sum[spWireCall], calls) / 1e3
	m["wire.overhead_us_per_call"] = per(sum[spWireCall]-sum[spServe], calls) / 1e3
	m["trace.overhead_share"] = 1 - decisions/elapsed.Seconds()/m["decisions_per_s"]
	t.matchShare = per(selfSum[spMatch], sum[spUnrolled])
	t.edgeShare = per(sum[spWireCall]-sum[spUnrolled], sum[spWireCall])
}

// engineWork re-runs the kept evaluations twice more: once between two
// readings of the allocator's counters, once under WithExplain for the
// work the index did.
func (t *traced) engineWork(m map[string]float64) {
	per := func(total, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	n := float64(len(t.sample))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, s := range t.sample {
		s.view.MatchRequest(s.req)
	}
	runtime.ReadMemStats(&ms1)
	m["engine.allocs_per_eval"] = per(float64(ms1.Mallocs-ms0.Mallocs), n)

	var hashes, buckets, slow, rejected, candidates float64
	var trail engine.Trail
	for _, s := range t.sample {
		s.view.MatchRequest(s.req, engine.WithExplain(&trail))
		hashes += float64(trail.KeywordHashes)
		buckets += float64(trail.BucketsProbed + trail.HostBucketsProbed)
		slow += float64(trail.SlowScanned)
		rejected += float64(trail.GateRejected)
		candidates += float64(len(trail.Candidates) + trail.TruncatedCandidates)
	}
	m["engine.keyword_hashes_per_eval"] = per(hashes, n)
	m["engine.buckets_probed_per_eval"] = per(buckets, n)
	m["engine.slow_scanned_per_eval"] = per(slow, n)
	m["engine.gate_rejected_per_eval"] = per(rejected, n)
	m["engine.candidates_per_eval"] = per(candidates, n)
}

// sanity fails the run when a workload no longer isolates the layer it
// was chosen for, or when the unrolled replay is not the same work as the
// whole call.
func (t *traced) sanity(workload string, res *result) error {
	match, edge := t.matchShare, t.edgeShare
	res.notes = append(res.notes, fmt.Sprintf(
		"attribution: engine.match is %.3f of unrolled.call; decision.http.overhead + wire.overhead is %.3f of wire.call", match, edge))
	if t.diverged > 0 {
		return fmt.Errorf("attribution: the unrolled replay answered %d calls differently from the whole call", t.diverged)
	}
	switch workload {
	case wlPageCold:
		if match < 0.60 {
			return fmt.Errorf("attribution: engine.match is %.3f of unrolled.call on page_cold, want at least 0.60", match)
		}
		if edge > 0.15 {
			return fmt.Errorf("attribution: handler and wire overhead is %.3f of wire.call on page_cold, want at most 0.15", edge)
		}
	case wlPageHot:
		if match > 0.10 {
			return fmt.Errorf("attribution: engine.match is %.3f of unrolled.call on page_hot, want at most 0.10", match)
		}
	case wlSingleZipf:
		if edge < 0.50 {
			return fmt.Errorf("attribution: handler and wire overhead is %.3f of wire.call on single_zipf, want at least 0.50", edge)
		}
	}
	return nil
}
