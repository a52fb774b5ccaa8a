// Command aa-serve is a long-running filter-decision service: it loads
// EasyList and the acceptable-ads whitelist into an immutable engine
// snapshot and answers match queries over HTTP.
//
//	POST /v1/match        — one request in, one decision out
//	POST /v1/match-batch  — up to 4096 requests against one snapshot
//	POST /v1/explain      — one request in, decision + full match trail out
//	POST /v1/diff         — one request under two profiles in one pass
//	POST /v1/elemhide     — element-hiding stylesheet for a document
//	GET  /v1/lists        — snapshot and cache introspection
//	POST /v1/reload       — rebuild the snapshot from the list source
//	POST /v1/rollback     — republish the previous retained snapshot
//	GET  /healthz         — process liveness (never shed)
//	GET  /readyz          — traffic readiness (503 while draining)
//	GET  /metrics         — Prometheus exposition + filter attribution
//	GET  /debug/filters   — top-N per-filter hit attribution
//
// Every response carries an X-AA-Trace header (inbound ids are honored)
// tying the request to its span logs and /debug/trace annotations.
//
// -profiles declares named list profiles — subsets of the loaded lists
// served from the one compiled engine, e.g. "easylist=easylist;all=*"
// ("*" = every list). The full profile always exists. Decision endpoints
// select a profile via ?profile= or the body's profile field, and
// /v1/diff answers "would this request decide differently under two
// profiles" — the ad-vs-acceptable-ad differential — in a single engine
// pass, naming the responsible exception filter with its list and line.
//
// Lists come from files (-easylist, -whitelist; re-read on reload), from
// subscription URLs (-easylist-url, -whitelist-url; conditional requests
// with ETag/304), or — with no list flags at all — from the synthetic
// study corpus (-seed). SIGHUP or POST /v1/reload swaps in a freshly
// built snapshot without ever blocking readers — but only after the
// candidate passes the reload canary (structural invariants plus the
// optional -canary-probes golden corpus); a rejected candidate leaves the
// serving snapshot untouched. SIGTERM/SIGINT flip /readyz to 503, wait
// -drain-grace, then drain in-flight requests before exiting.
//
// The API endpoints sit behind a weighted admission controller
// (-shed-capacity, -shed-queue): requests past the concurrency limit
// wait in a bounded queue and are shed with 429 + Retry-After, and under
// sustained overload /v1/match degrades to cache-only service. With
// -state-dir every published snapshot is persisted (write + atomic
// rename) and a restart serves the last-good snapshot before its first
// fetch.
//
// Usage:
//
//	aa-serve [-listen 127.0.0.1:8765] [-cache 65536] \
//	         [-easylist FILE -whitelist FILE | -easylist-url URL -whitelist-url URL] \
//	         [-metrics-addr :8080] [-log-level info] \
//	         [-request-timeout 5s] [-drain-timeout 10s] [-drain-grace 0s] \
//	         [-max-retries 2] [-state-dir DIR] [-snapshots 4] \
//	         [-shed-capacity 256] [-shed-queue 512] \
//	         [-canary-probes FILE] [-no-canary] \
//	         [-profiles "easylist=easylist"]
//
// The end-to-end checks live in this package's tests and drive run
// itself: `make serve-smoke` exercises every endpoint, delivers SIGTERM
// and asserts /readyz flips before a clean drain; `make overload-smoke`
// hammers /v1/match past the admission limit and asserts shed requests
// get 429 + Retry-After while admitted ones are served and /healthz
// stays up.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"acceptableads/internal/core"
	"acceptableads/internal/decision"
	"acceptableads/internal/engine"
	"acceptableads/internal/obs"
	"acceptableads/internal/subscription"
)

// config carries the parsed flags into run.
type config struct {
	listen         string
	metricsAddr    string
	logLevel       string
	easylist       string
	whitelist      string
	easylistURL    string
	whitelistURL   string
	seed           uint64
	cacheSize      int
	requestTimeout time.Duration
	drainTimeout   time.Duration
	drainGrace     time.Duration
	maxRetries     int
	stateDir       string
	snapshots      int
	shedCapacity   int64
	shedQueue      int64
	canaryProbes   string
	noCanary       bool
	profiles       string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("aa-serve: ")
	cfg := parseFlags(os.Args[1:])
	// Signals are routed before the listener opens, so one that arrives
	// while the first snapshot builds is handled once serving starts.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		log.Fatal(err)
	}
	if err := run(cfg, ln, sigs); err != nil {
		log.Fatal(err)
	}
}

// parseFlags parses the command line into a config; a malformed flag
// exits with the usage text, as flag.Parse does.
func parseFlags(args []string) config {
	var cfg config
	fs := flag.NewFlagSet("aa-serve", flag.ExitOnError)
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:8765", "serve the decision API on this address")
	fs.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve /debug/vars and /debug/pprof/ on this address (empty = off)")
	fs.StringVar(&cfg.logLevel, "log-level", "info", "log spec: LEVEL or component=LEVEL,... (debug, info, warn, error)")
	fs.StringVar(&cfg.easylist, "easylist", "", "EasyList file, re-read on every reload")
	fs.StringVar(&cfg.whitelist, "whitelist", "", "exceptionrules file, re-read on every reload")
	fs.StringVar(&cfg.easylistURL, "easylist-url", "", "EasyList subscription URL (conditional fetches)")
	fs.StringVar(&cfg.whitelistURL, "whitelist-url", "", "exceptionrules subscription URL (conditional fetches)")
	fs.Uint64Var(&cfg.seed, "seed", core.DefaultSeed, "study seed for the synthetic lists used when no list flags are given")
	fs.IntVar(&cfg.cacheSize, "cache", 1<<16, "decision cache capacity in entries (0 = off)")
	fs.DurationVar(&cfg.requestTimeout, "request-timeout", decision.DefaultRequestTimeout, "per-request deadline")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests")
	fs.DurationVar(&cfg.drainGrace, "drain-grace", 0, "how long readiness stays false before the listener drains (lets load balancers stop routing)")
	fs.IntVar(&cfg.maxRetries, "max-retries", 2, "reload fetch retries after the first attempt")
	fs.StringVar(&cfg.stateDir, "state-dir", "", "persist published snapshots here and warm-start from the last one (empty = off)")
	fs.IntVar(&cfg.snapshots, "snapshots", decision.DefaultKeepSnapshots, "how many generations the rollback ring retains, the serving one included (kept in -state-dir when set, else in memory)")
	fs.Int64Var(&cfg.shedCapacity, "shed-capacity", decision.DefaultShedCapacity, "admission weight allowed in flight at once (0 = shedding off)")
	fs.Int64Var(&cfg.shedQueue, "shed-queue", decision.DefaultShedQueue, "bounded admission wait queue (negative = shed immediately when full)")
	fs.StringVar(&cfg.canaryProbes, "canary-probes", "", "JSON file with golden probes replayed against every candidate snapshot")
	fs.BoolVar(&cfg.noCanary, "no-canary", false, "disable canary validation of reloads (chaos drills only)")
	fs.StringVar(&cfg.profiles, "profiles", "easylist=easylist",
		`list profiles as "name=list,list;name=*" ("*" = every list; empty = only the implicit full profile)`)
	fs.Parse(args) //nolint:errcheck // ExitOnError: Parse exits instead of returning an error
	return cfg
}

// run is the whole server lifecycle on ln, which it owns: SIGHUP on sigs
// reloads, SIGTERM or SIGINT drains. Returning (instead of log.Fatal
// scattered through goroutines) means deferred cleanup — the telemetry
// listener, notably — always runs, and a listener failure takes the same
// drain path as a signal.
func run(cfg config, ln net.Listener, sigs <-chan os.Signal) error {
	defer ln.Close()
	if err := obs.SetLogSpec(cfg.logLevel); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	if cfg.metricsAddr != "" {
		addr, stop, err := obs.ServeDebug(cfg.metricsAddr, reg, nil)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "aa-serve: telemetry at http://%s/debug/vars\n", addr)
	}

	src, desc := pickSource(cfg.easylist, cfg.whitelist, cfg.easylistURL, cfg.whitelistURL, cfg.seed)
	log.Printf("list source: %s", desc)

	canary := decision.CanaryConfig{Disable: cfg.noCanary}
	if cfg.canaryProbes != "" {
		probes, err := loadProbes(cfg.canaryProbes)
		if err != nil {
			return err
		}
		canary.Probes = probes
		log.Printf("canary: %d golden probes loaded from %s", len(probes), cfg.canaryProbes)
	}

	profiles, err := parseProfiles(cfg.profiles)
	if err != nil {
		return err
	}
	if len(profiles) > 0 {
		log.Printf("profiles: %v (plus the implicit full profile)", profileNames(profiles))
	}

	svc, err := decision.New(context.Background(), decision.Config{
		Source:        src,
		Profiles:      profiles,
		CacheSize:     cfg.cacheSize,
		MaxAttempts:   cfg.maxRetries + 1,
		Seed:          cfg.seed,
		Obs:           reg,
		Logger:        obs.Logger("decision"),
		Canary:        canary,
		KeepSnapshots: cfg.snapshots,
		StateDir:      cfg.stateDir,
	})
	if err != nil {
		return err
	}
	snap := svc.Snapshot()
	startPath := "compiled"
	if snap.BinaryStart {
		startPath = "binary snapshot"
	} else if snap.WarmStart {
		startPath = "recompiled lists"
	}
	log.Printf("snapshot v%d ready: %d filters from %d lists (warmStart=%t, via %s)",
		snap.Version, snap.Engine.NumFilters(), len(snap.Lists), snap.WarmStart, startPath)

	var shed *decision.Shedder
	if cfg.shedCapacity > 0 {
		shed = decision.NewShedder(decision.ShedConfig{
			Capacity: cfg.shedCapacity,
			MaxQueue: cfg.shedQueue,
			Obs:      reg,
		})
		log.Printf("load shedding: capacity %d, queue %d", cfg.shedCapacity, cfg.shedQueue)
	}

	srv := &http.Server{
		Handler: decision.Handler(svc, decision.HandlerConfig{
			RequestTimeout: cfg.requestTimeout,
			Obs:            reg,
			Shed:           shed,
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	// Serve errors feed the shutdown select below instead of aborting the
	// process from inside the goroutine: a failing listener takes the same
	// drain-and-cleanup path as a SIGTERM.
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr <- err
		}
	}()
	log.Printf("decision API at http://%s/v1/match", ln.Addr())

	// Event loop: SIGHUP reloads without blocking readers; SIGTERM,
	// SIGINT and a listener failure drain in-flight requests, then exit.
	var exitErr error
loop:
	for {
		select {
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				ctx, cancel := context.WithTimeout(context.Background(), cfg.requestTimeout)
				next, err := svc.Reload(ctx)
				cancel()
				if err != nil {
					log.Printf("SIGHUP reload failed; keeping current snapshot: %v", err)
					continue
				}
				log.Printf("SIGHUP reload: snapshot v%d, %d filters", next.Version, next.Engine.NumFilters())
				continue
			}
			log.Printf("%s: draining (grace %s, up to %s)...", sig, cfg.drainGrace, cfg.drainTimeout)
			break loop
		case err := <-serveErr:
			log.Printf("serve failed: %v; draining...", err)
			exitErr = err
			break loop
		}
	}

	// Readiness goes false first so load balancers stop routing, then the
	// grace window lets straggler requests land, then the listener drains.
	svc.SetDraining(true)
	if cfg.drainGrace > 0 {
		time.Sleep(cfg.drainGrace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	err = srv.Shutdown(ctx)
	cancel()
	if err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	log.Printf("drained cleanly")
	return exitErr
}

// parseProfiles parses the -profiles spec: semicolon-separated
// name=comma,separated,lists entries; "*" means every loaded list. An
// empty spec declares nothing (the implicit full profile still exists).
func parseProfiles(spec string) (map[string][]string, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	out := map[string][]string{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, lists, ok := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("-profiles: entry %q is not name=list,list", entry)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("-profiles: profile %q declared twice", name)
		}
		var members []string
		for _, l := range strings.Split(lists, ",") {
			if l = strings.TrimSpace(l); l != "" {
				members = append(members, l)
			}
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("-profiles: profile %q names no lists", name)
		}
		out[name] = members
	}
	return out, nil
}

func profileNames(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// loadProbes reads a golden probe corpus from a JSON file.
func loadProbes(path string) ([]decision.Probe, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probes []decision.Probe
	if err := json.Unmarshal(body, &probes); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return probes, nil
}

// pickSource chooses the list source: subscription URLs win, then files,
// then the synthetic study corpus.
func pickSource(easyFile, wlFile, easyURL, wlURL string, seed uint64) (decision.Source, string) {
	if easyURL != "" || wlURL != "" {
		var srcs []subscription.Source
		var names []string
		if easyURL != "" {
			srcs = append(srcs, subscription.Source{Name: "easylist", URL: easyURL})
			names = append(names, "easylist")
		}
		if wlURL != "" {
			srcs = append(srcs, subscription.Source{Name: "exceptionrules", URL: wlURL})
			names = append(names, "exceptionrules")
		}
		sub := subscription.NewSubscriber(http.DefaultClient, srcs...)
		return decision.Subscriptions(sub, names...), fmt.Sprintf("subscriptions %v", names)
	}
	if easyFile != "" || wlFile != "" {
		files := map[string]string{}
		if easyFile != "" {
			files["easylist"] = easyFile
		}
		if wlFile != "" {
			files["exceptionrules"] = wlFile
		}
		return decision.Files(files), fmt.Sprintf("files %v", files)
	}
	return studySource(seed), fmt.Sprintf("synthetic study lists (seed %d)", seed)
}

// studySource serves the synthetic study corpus — the default when no
// list flags are given, so the server always has something to serve.
func studySource(seed uint64) decision.Source {
	return sourceFunc(func(context.Context) ([]engine.NamedList, error) {
		study := core.NewStudy(seed)
		wl, err := study.Whitelist()
		if err != nil {
			return nil, err
		}
		return []engine.NamedList{
			{Name: "easylist", List: study.EasyList()},
			{Name: "exceptionrules", List: wl},
		}, nil
	})
}

type sourceFunc func(ctx context.Context) ([]engine.NamedList, error)

func (f sourceFunc) Load(ctx context.Context) ([]engine.NamedList, error) { return f(ctx) }
