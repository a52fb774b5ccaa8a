package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// selfcheckRuns is the size of each of the two sets of runs per workload.
const selfcheckRuns = 3

// manifest is the part of BENCHMARK.json the selfcheck needs: the bounds
// live there and nowhere else.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck answers whether two sets of runs of the same code agree
// within the benchmark's own bounds. The workloads are interleaved, never
// one workload's runs back to back, so a disturbance lasting minutes
// lands on every workload and both sets alike.
func runSelfcheck(ctx context.Context, seconds int) error {
	d, err := findDirs()
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(d.repo, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	// values[set][workload][metric] collects one number per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, w := range workloadNames {
			values[set][w] = make(map[string][]float64)
		}
	}
	began := time.Now()
	for round := 0; round < 2*selfcheckRuns; round++ {
		for _, w := range workloadNames {
			seed := strconv.Itoa(round + 1)
			cmd := exec.CommandContext(ctx, self, "-workload", w, "-seed", seed, "-seconds", strconv.Itoa(seconds))
			cmd.Dir = d.bench
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %s: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct bool `json:"correct"`
				Failed  int64
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %s: last line is not the result: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %s: %d operations failed", w, seed, res.Failed)
			}
			for name, v := range res.Metrics {
				values[round/selfcheckRuns][w][name] = append(values[round/selfcheckRuns][w][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: round %d/%d %s done (%s)\n",
				round+1, 2*selfcheckRuns, w, time.Since(began).Round(time.Second))
		}
	}

	commit := "unknown"
	if out, err := exec.CommandContext(ctx, "git", "-C", d.repo, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("selfcheck: 2 sets of %d runs per workload, window %ds, nproc %d, %s, commit %s\n\n",
		selfcheckRuns, seconds, runtime.NumCPU(), runtime.Version(), commit)
	fmt.Println("| workload | metric | unit | median A | median B | B vs A | bound | |")
	fmt.Println("|---|---|---|---:|---:|---:|---:|---|")
	exceeded := 0
	for _, w := range workloadNames {
		for _, md := range mf.EndToEnd {
			a, b := median(values[0][w][md.Name]), median(values[1][w][md.Name])
			diff := (b - a) / a
			verdict := "ok"
			if math.IsNaN(diff) || math.Abs(diff) > md.Bound {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %+.2f%% | %.0f%% | %s |\n",
				w, md.Name, md.Unit, a, b, 100*diff, 100*md.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("selfcheck: %d of %d metric x workload pairs differ by more than their bound",
			exceeded, len(workloadNames)*len(mf.EndToEnd))
	}
	fmt.Printf("\nselfcheck: all %d pairs within their bounds\n", len(workloadNames)*len(mf.EndToEnd))
	return nil
}
