// Command aa-bench is the repository's service benchmark. It builds
// ./cmd/aa-serve, runs it as a child process on loopback with production
// flags, drives it through api.Client in a closed loop, verifies the
// answers against a linear-scan oracle and prints every metric by name
// with its unit; the last line of standard output is one JSON object with
// the same numbers. One invocation runs one workload. See ../README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service would see. Every
// workload reports all of them, from the untraced run.
var endToEnd = []metricDef{
	{"decisions_per_s", "1/s"},
	{"call_p50_us", "us"},
	{"call_p99_us", "us"},
	{"server_cpu_us_per_decision", "us"},
	{"server_rss_peak_mb", "MB"},
	{"reload_p50_ms", "ms"},
	{"warm_start_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, named after the repository's
// modules. A traced run reports all of them: most from the in-process
// replay, the server.*, loadgen.*, host.* and a few decision.* ones from
// the child process and the kernel during the untraced window.
var perLayer = []metricDef{
	{"engine.prepare_us_per_decision", "us"},
	{"engine.match_us_per_eval", "us"},
	{"engine.match_nomatch_us", "us"},
	{"engine.match_blocked_us", "us"},
	{"engine.match_allowed_us", "us"},
	{"engine.evals_per_decision", "count"},
	{"engine.allocs_per_eval", "count"},
	{"engine.keyword_hashes_per_eval", "count"},
	{"engine.buckets_probed_per_eval", "count"},
	{"engine.slow_scanned_per_eval", "count"},
	{"engine.gate_rejected_per_eval", "count"},
	{"engine.candidates_per_eval", "count"},
	{"api.decode_us_per_decision", "us"},
	{"api.encode_us_per_decision", "us"},
	{"api.request_bytes_per_decision", "B"},
	{"api.response_bytes_per_decision", "B"},
	{"decision.cache.get_ns", "ns"},
	{"decision.cache.put_ns", "ns"},
	{"decision.cache.hit_ratio", "ratio"},
	{"decision.cache.evictions_per_decision", "count"},
	{"decision.match_batch_us_per_decision", "us"},
	{"decision.new_cold_ms", "ms"},
	{"decision.new_warm_ms", "ms"},
	{"decision.reload_other_ms", "ms"},
	{"decision.reload_under_load_p50_ms", "ms"},
	{"decision.shed_share", "ratio"},
	{"decision.reloads_rejected", "count"},
	{"filter.parse_ms", "ms"},
	{"engine.build_ms", "ms"},
	{"snapbin.encode_ms", "ms"},
	{"snapbin.decode_ms", "ms"},
	{"snapbin.snapshot_mb", "MB"},
	{"decision.http.serve_us_per_call", "us"},
	{"decision.http.overhead_us_per_call", "us"},
	{"wire.call_us", "us"},
	{"wire.overhead_us_per_call", "us"},
	{"server.cpu_cores_busy", "cores"},
	{"server.cpu_sys_share", "ratio"},
	{"server.heap_alloc_kb_per_decision", "kB"},
	{"server.gc_cycles_per_s", "1/s"},
	{"server.gc_pause_ms_per_s", "ms/s"},
	{"loadgen.cpu_share", "ratio"},
	{"loadgen.build_body_us_per_call", "us"},
	{"host.other_cpu_share", "ratio"},
	{"host.steal_share", "ratio"},
	{"host.disturbed_slices", "count"},
	{"trace.overhead_share", "ratio"},
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed the request corpus is derived from")
	seconds := flag.Int("seconds", 15, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics (child counters and an in-process traced replay) instead of the end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run every workload in two interleaved sets of runs and compare their medians with the bounds in BENCHMARK.json")
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	var err error
	if *selfcheck {
		err = runSelfcheck(ctx, *seconds)
	} else {
		err = runOne(ctx, runConfig{
			workload: *workload,
			seed:     *seed,
			window:   time.Duration(*seconds) * time.Second,
			trace:    *trace != 0,
		})
	}
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aa-bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints its report.
func runOne(ctx context.Context, cfg runConfig) error {
	e, err := prepareRun(ctx, cfg)
	if err != nil {
		return err
	}
	defer e.cleanup()
	res, err := runEndToEnd(ctx, e)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		if err := runTraced(ctx, e, res); err != nil {
			return err
		}
		defs = perLayer
	}
	return report(cfg, res, defs)
}

// report prints the run: notes, one line per metric, and last the JSON
// object the driver reads. A reply that contradicts the oracle makes the
// run fail after it has said what it saw.
func report(cfg runConfig, res *result, defs []metricDef) error {
	fmt.Printf("workload %s seed %d window %s trace %t\n", cfg.workload, cfg.seed, cfg.window, cfg.trace)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.failed == 0 && res.mismatches == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%-42s %16.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	// What else was measured is printed for the reader; the JSON holds
	// this mode's list and nothing more.
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if v, ok := res.metrics[d.name]; ok && out.Metrics[d.name] == (value{}) {
			fmt.Printf("%-42s %16.4f %s (not in this mode's result)\n", d.name, v, d.unit)
		}
	}
	fmt.Printf("ops_attempted %d\nops_failed %d\n", res.attempted, res.failed)
	if res.firstErr != nil {
		fmt.Printf("first_failure %v\n", res.firstErr)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.mismatches > 0 {
		return fmt.Errorf("%d replies contradict the oracle; first: %w", res.mismatches, res.firstErr)
	}
	return nil
}
