package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"acceptableads/internal/decision/api"
)

// Lifecycle samples per run. Each is a whole process start or reload, so
// one sample repeats to about ±10%; the run reports their medians, and
// takes enough samples for the medians to repeat to a few percent.
const (
	coldStarts   = 15 // setup_s
	quietReloads = 25 // reload_p50_ms
	warmStarts   = 31 // warm_start_ms
)

// probe is the request that proves a freshly started child serves: a
// whitelisted tracker EasyList blocks, so both lists must be loaded. Both
// list variants decide it alike, whichever a restart finds persisted.
var probe = tuple{url: "http://stats.g.doubleclick.net/r/collect", doc: "https://www.toyota.com/", typ: "image"}

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
}

func (c runConfig) slices() int {
	n := int(math.Round(float64(c.window) / float64(sliceDur)))
	if n < 1 {
		n = 1
	}
	return n
}

// conns is the closed loop's width: a caller per core, and no more than
// two — the service's callers wait for a verdict before they fetch.
func conns() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// result is what one run measured.
type result struct {
	attempted, failed int64
	mismatches        int
	firstErr          error
	metrics           map[string]float64
	notes             []string // lines for the human-readable report
	callsPerSlice     float64  // median over the window's slices
}

// env is the state shared by the phases of a run.
type env struct {
	cfg       runConfig
	dirs      dirs
	tmp       string // this run's scratch directory
	bin       string
	fix       *fixture
	lists     listFiles
	w         *workload
	oracle    *oracle
	probeWant verdict // what the probe must answer
}

// prepareRun builds everything a run needs before a process is started:
// fixture, list files, child binary, workload, oracle sample.
func prepareRun(ctx context.Context, cfg runConfig) (*env, error) {
	e := &env{cfg: cfg}
	var err error
	if e.dirs, err = findDirs(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dirs.out, 0o755); err != nil {
		return nil, err
	}
	if e.bin, err = buildChild(ctx, e.dirs); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(e.dirs.out, "run-"); err != nil {
		return nil, err
	}
	if e.fix, err = benchFixture(); err != nil {
		return nil, err
	}
	if e.lists, err = e.fix.writeLists(e.tmp); err != nil {
		return nil, err
	}
	if e.w, err = newWorkload(cfg.workload, e.fix, cfg.seed, conns(), 1); err != nil {
		return nil, err
	}
	if e.oracle, err = newOracle(e.fix); err != nil {
		return nil, err
	}
	if err := e.decideSamples(); err != nil {
		return nil, err
	}
	return e, nil
}

// decideSamples chooses the oracle sample and decides it and the probe.
func (e *env) decideSamples() error {
	if err := e.w.chooseSamples(); err != nil {
		return err
	}
	if err := e.oracle.decideAll(e.w.samples, e.w.name == wlSingleZipf, runtime.NumCPU()); err != nil {
		return err
	}
	p := sample{t: probe}
	if err := e.oracle.decide(&p, false); err != nil {
		return err
	}
	if p.want[variantA][0] != p.want[variantB][0] || p.want[variantA][0].verdict != "allowed" {
		return fmt.Errorf("probe must be allowed under both list variants, oracle says %+v", p.want)
	}
	e.probeWant = p.want[variantA][0]
	// Both variants must be told apart by the sample, or a reply from the
	// wrong snapshot would pass.
	if e.w.name == wlReloadChurn {
		differ := 0
		for _, s := range e.w.samples {
			if s.want[variantA][0] != s.want[variantB][0] {
				differ++
			}
		}
		if differ == 0 {
			return fmt.Errorf("no sampled tuple is decided differently by the two list variants")
		}
	}
	return nil
}

func (e *env) cleanup() { os.RemoveAll(e.tmp) } //nolint:errcheck // scratch

// start execs a child on stateDir and waits for its first verified
// reply; the duration runs from exec to that reply.
func (e *env) start(ctx context.Context, stateDir string) (*child, time.Duration, error) {
	c, err := startChild(ctx, e.bin, e.lists, stateDir)
	if err != nil {
		return nil, 0, err
	}
	out, err := newConn(c.base).Match(ctx, probe.wire())
	took := time.Since(c.started)
	if err == nil && verdictOfReply(out) != e.probeWant {
		err = fmt.Errorf("first reply %+v, oracle says %+v", verdictOfReply(out), e.probeWant)
	}
	if err != nil {
		c.stop() //nolint:errcheck // the first error is the one to report
		return nil, 0, fmt.Errorf("first reply of a fresh child: %w", err)
	}
	return c, took, nil
}

// runEndToEnd is the untraced run: cold starts, pre-load, warm-up,
// measured window, lifecycle tail. A traced invocation makes it too, for
// the per-layer metrics only an outside view of the real process can give:
// it then reads the child's own counters around the window, makes one cold
// start and skips the tail, whose metrics it does not report.
func runEndToEnd(ctx context.Context, e *env) (*result, error) {
	res := &result{metrics: map[string]float64{}}

	// Set-up: cold starts on an empty state dir from the raw list files.
	// The last child stays up and serves the run.
	nCold := coldStarts
	if e.cfg.trace {
		nCold = 1
	}
	var serving *child
	stopServing := func() error {
		if serving == nil {
			return nil
		}
		c := serving
		serving = nil
		return c.stop()
	}
	defer stopServing() //nolint:errcheck // error paths; the success path checks it
	var colds []float64
	stateDir := ""
	for i := 0; i < nCold; i++ {
		if err := stopServing(); err != nil {
			return nil, err
		}
		stateDir = filepath.Join(e.tmp, "state-"+strconv.Itoa(i))
		if err := os.Mkdir(stateDir, 0o755); err != nil {
			return nil, err
		}
		var took time.Duration
		var err error
		res.attempted++
		if serving, took, err = e.start(ctx, stateDir); err != nil {
			return nil, fmt.Errorf("cold start %d: %w", i, err)
		}
		colds = append(colds, took.Seconds())
	}
	res.metrics["setup_s"] = median(colds)
	res.notes = append(res.notes, fmt.Sprintf("cold starts, s: %.3f", colds))

	lg := newLoadgen(e.w, e.fix, e.lists, serving.base)
	finish := func() (*result, error) {
		res.attempted += lg.attempted.Load()
		res.failed += lg.failed.Load()
		res.mismatches, res.firstErr = lg.mismatches, lg.firstErr
		return res, stopServing()
	}
	lg.replay(ctx, e.w.preload())
	if lg.failed.Load() > 0 {
		return nil, fmt.Errorf("pre-load: %w", lg.firstErr)
	}

	before, err := readChildStats(ctx, serving, e.cfg.trace)
	if err != nil {
		return nil, err
	}
	win, err := lg.measure(ctx, serving.pid(), e.cfg.slices())
	if err != nil {
		return nil, err
	}
	after, err := readChildStats(ctx, serving, e.cfg.trace)
	if err != nil {
		return nil, err
	}
	hwm, err := readVmHWM(serving.pid())
	if err != nil {
		return nil, err
	}
	if err := e.windowMetrics(res, lg, win, before, after); err != nil {
		return nil, err
	}
	res.metrics["server_rss_peak_mb"] = float64(hwm) / 1024
	if e.cfg.trace {
		return finish()
	}

	// Lifecycle tail, on the now quiet server: reloads, then restarts on
	// the state dir the run has populated.
	var reloads []float64
	for i := 0; i < quietReloads; i++ {
		dur, err := lg.reload(ctx, 0)
		if err != nil {
			return nil, fmt.Errorf("quiet reload %d: %w", i, err)
		}
		// The push has served once a reply comes from the new version.
		t0 := time.Now()
		lg.do(ctx, 0, &call{batch: &api.BatchRequest{Requests: []api.MatchRequest{probe.wire()}}})
		reloads = append(reloads, float64(dur+time.Since(t0))/1e6)
	}
	res.metrics["reload_p50_ms"] = median(reloads)
	res.notes = append(res.notes, fmt.Sprintf("quiet reloads, ms: %.1f", reloads))
	if err := stopServing(); err != nil {
		return nil, err
	}
	var warms []float64
	for i := 0; i < warmStarts; i++ {
		res.attempted++
		c, took, err := e.start(ctx, stateDir)
		if err != nil {
			return nil, fmt.Errorf("warm start %d: %w", i, err)
		}
		warms = append(warms, float64(took)/1e6)
		if err := c.stop(); err != nil {
			return nil, err
		}
	}
	res.metrics["warm_start_ms"] = median(warms)
	res.notes = append(res.notes, fmt.Sprintf("warm starts, ms: %.1f", warms))
	return finish()
}

// windowMetrics turns the measured window into metrics.
func (e *env) windowMetrics(res *result, lg *loadgen, win *window, before, after *childStats) error {
	want := e.cfg.slices()
	kept := win.kept(want)
	if len(kept) == 0 {
		return fmt.Errorf("the window has no slices")
	}
	m := res.metrics
	m["decisions_per_s"] = over(kept, func(s sliceStats) float64 { return float64(s.decisions) / s.dur.Seconds() })
	m["call_p50_us"] = over(kept, func(s sliceStats) float64 { return float64(s.p50) / 1e3 })
	// A slice of page_cold holds a few hundred calls, too few for a 99th
	// percentile of its own: the tail is taken over the kept slices' calls
	// together, so that at least ten of them lie beyond it.
	var pool []int64
	for _, s := range kept {
		pool = append(pool, s.lats...)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	p99, ok := percentile(pool, 0.99)
	if !ok {
		res.notes = append(res.notes, fmt.Sprintf(
			"WARNING: fewer than %d of the window's %d calls lie beyond call_p99_us; lengthen the window", minBeyond, len(pool)))
	}
	m["call_p99_us"] = float64(p99) / 1e3
	res.callsPerSlice = over(kept, func(s sliceStats) float64 { return float64(s.calls) })
	m["server_cpu_us_per_decision"] = over(kept, func(s sliceStats) float64 { return s.childCPU * 1e6 / float64(s.decisions) })

	nDisturbed, minCalls := 0, math.MaxInt
	for _, s := range win.slices {
		if s.disturbed {
			nDisturbed++
		}
	}
	for _, s := range kept {
		if s.calls < minCalls {
			minCalls = s.calls
		}
	}
	res.notes = append(res.notes,
		fmt.Sprintf("window: %d slices of %s, %d disturbed, medians over %d; at least %d calls per slice, p99 over %d calls",
			len(win.slices), sliceDur, nDisturbed, len(kept), minCalls, len(pool)))
	if len(kept) == len(win.slices) && nDisturbed > 0 {
		res.notes = append(res.notes, "DISTURBED: too few clean slices, medians are over all of them")
	}
	for i, s := range win.slices {
		res.notes = append(res.notes, fmt.Sprintf(
			"  slice %2d: %6d calls %8d decisions  p50 %8.1fus  p99 %9.1fus  child %.2fs  loadgen %.2fs  other %.3f%s",
			i, s.calls, s.decisions, float64(s.p50)/1e3, float64(s.p99)/1e3, s.childCPU, s.selfCPU, s.otherShare,
			map[bool]string{true: "  DISTURBED"}[s.disturbed]))
	}

	total := float64(lg.verdicts[0].Load() + lg.verdicts[1].Load() + lg.verdicts[2].Load())
	noMatch := float64(lg.verdicts[0].Load()) / total
	res.notes = append(res.notes, fmt.Sprintf("corpus: no_match_share %.4f, blocked_share %.4f, allowed_share %.4f over %.0f decisions",
		noMatch, float64(lg.verdicts[1].Load())/total, float64(lg.verdicts[2].Load())/total, total))
	if noMatch < 0.88 || noMatch > 0.97 {
		return fmt.Errorf("corpus.no_match_share %.4f is outside [0.88, 0.97]: the traffic is not crawl-shaped", noMatch)
	}

	// Per-layer metrics read from the real process and the generator.
	hostTotal := func(s sliceStats) float64 { return s.dur.Seconds() * float64(runtime.NumCPU()) }
	m["server.cpu_cores_busy"] = over(kept, func(s sliceStats) float64 { return s.childCPU / s.dur.Seconds() })
	m["server.cpu_sys_share"] = over(kept, func(s sliceStats) float64 { return s.childSys / s.childCPU })
	m["loadgen.cpu_share"] = over(kept, func(s sliceStats) float64 { return s.selfCPU / hostTotal(s) })
	m["loadgen.build_body_us_per_call"] = over(kept, func(s sliceStats) float64 { return float64(s.buildPerOp) / 1e3 })
	m["host.other_cpu_share"] = over(kept, func(s sliceStats) float64 { return s.otherShare })
	m["host.steal_share"] = over(kept, func(s sliceStats) float64 { return s.stealShare })
	m["host.disturbed_slices"] = float64(nDisturbed)
	var under []float64
	for _, s := range kept {
		for _, d := range s.reloadUnder {
			under = append(under, float64(d)/1e6)
		}
	}
	m["decision.reload_under_load_p50_ms"] = 0 // no reload runs under load outside reload_churn
	if len(under) > 0 {
		m["decision.reload_under_load_p50_ms"] = median(under)
	}
	after.delta(before, m)
	return nil
}

// childStats is the serving child's own view of itself, read over its
// API and telemetry listeners.
type childStats struct {
	at         time.Time
	cache      api.CacheStats
	rejected   int64
	matches    int64
	shed       int64 // requests refused by admission control
	requests   int64 // requests the decision endpoints saw
	totalAlloc float64
	numGC      float64
	pauseNs    []float64 // runtime.MemStats.PauseNs, the ring of recent pauses
	haveMem    bool
}

// readChildStats reads the child's counters; the Go runtime's memory
// statistics cost the child a stop-the-world and a heap profile, so they
// are only read when mem is set.
func readChildStats(ctx context.Context, c *child, mem bool) (*childStats, error) {
	s := &childStats{at: time.Now()}
	lists, err := newConn(c.base).Lists(ctx)
	if err != nil {
		return nil, fmt.Errorf("child stats: %w", err)
	}
	if lists.Stats.Cache != nil {
		s.cache = *lists.Stats.Cache
	}
	s.rejected, s.matches = lists.Stats.ReloadsRejected, lists.Stats.Matches
	raw, err := httpGet(ctx, c.metrics+"/debug/vars")
	if err != nil {
		return nil, fmt.Errorf("child stats: %w", err)
	}
	var vars struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(raw), &vars); err != nil {
		return nil, fmt.Errorf("child stats: /debug/vars: %w", err)
	}
	s.shed = vars.Counters["decision.shed.dropped"] + vars.Counters["decision.shed.deadline"]
	for name, v := range vars.Counters {
		if strings.HasPrefix(name, "decision.http.") && strings.HasSuffix(name, ".requests") {
			s.requests += v
		}
	}
	if !mem {
		return s, nil
	}
	heap, err := httpGet(ctx, c.metrics+"/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, fmt.Errorf("child stats: %w", err)
	}
	for _, line := range strings.Split(heap, "\n") {
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		switch name {
		case "TotalAlloc":
			s.totalAlloc, _ = strconv.ParseFloat(val, 64)
			s.haveMem = true
		case "NumGC":
			s.numGC, _ = strconv.ParseFloat(val, 64)
		case "PauseNs":
			for _, p := range strings.Fields(strings.Trim(val, "[]")) {
				v, _ := strconv.ParseFloat(p, 64)
				s.pauseNs = append(s.pauseNs, v)
			}
		}
	}
	if !s.haveMem {
		return nil, fmt.Errorf("child stats: no runtime.MemStats in the heap profile")
	}
	return s, nil
}

func httpGet(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

// delta writes the per-layer metrics that are differences of the child's
// counters between before and s. They span warm-up and window alike: the
// counters cannot be read at a slice edge without disturbing the slice.
func (s *childStats) delta(before *childStats, m map[string]float64) {
	probes := float64(s.cache.Hits - before.cache.Hits + s.cache.Misses - before.cache.Misses)
	decisions := float64(s.matches - before.matches)
	m["decision.cache.hit_ratio"], m["decision.cache.evictions_per_decision"] = 0, 0
	if probes > 0 {
		m["decision.cache.hit_ratio"] = float64(s.cache.Hits-before.cache.Hits) / probes
	}
	if decisions > 0 {
		m["decision.cache.evictions_per_decision"] = float64(s.cache.Evictions-before.cache.Evictions) / decisions
	}
	m["decision.shed_share"] = 0
	if n := float64(s.requests - before.requests); n > 0 {
		m["decision.shed_share"] = float64(s.shed-before.shed) / n
	}
	m["decision.reloads_rejected"] = float64(s.rejected - before.rejected)
	if !s.haveMem || decisions == 0 {
		return
	}
	secs := s.at.Sub(before.at).Seconds()
	cycles := s.numGC - before.numGC
	m["server.heap_alloc_kb_per_decision"] = (s.totalAlloc - before.totalAlloc) / 1024 / decisions
	m["server.gc_cycles_per_s"] = cycles / secs
	// PauseNs is a ring of the most recent pauses, the latest at
	// (NumGC-1) mod its length; when more cycles ran than it holds, the
	// ones it kept stand for the ones it dropped.
	var pause float64
	ring := len(s.pauseNs)
	n := int(cycles)
	if n > ring {
		n = ring
	}
	for i := 0; i < n; i++ {
		pause += s.pauseNs[((int(s.numGC)-1-i)%ring+ring)%ring]
	}
	if n > 0 {
		pause *= cycles / float64(n)
	}
	m["server.gc_pause_ms_per_s"] = pause / 1e6 / secs
}
