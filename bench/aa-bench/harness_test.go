package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"acceptableads/internal/xrand"
)

// testScale shrinks the workloads' universes so a test builds one in
// milliseconds.
const testScale = 64

func testWorkload(t *testing.T, name string, seed uint64) *workload {
	t.Helper()
	w, err := newWorkload(name, smallFixture(), seed, 2, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// bodies marshals the first n calls of every connection, in order.
func bodies(t *testing.T, w *workload, n int) []string {
	t.Helper()
	var out []string
	for c := 0; c < w.conns; c++ {
		s := w.stream(c)
		for i := 0; i < n; i++ {
			call := s.next()
			var v any = call.single
			if call.batch != nil {
				v = call.batch
			}
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
	}
	return out
}

func TestSameSeedSameTraffic(t *testing.T) {
	for _, name := range workloadNames {
		a, b := bodies(t, testWorkload(t, name, 7), 40), bodies(t, testWorkload(t, name, 7), 40)
		other := bodies(t, testWorkload(t, name, 8), 40)
		differs := false
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: call %d differs between two runs of seed 7:\n%s\n%s", name, i, a[i], b[i])
			}
			differs = differs || a[i] != other[i]
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same %d calls", name, len(a))
		}
	}
}

func TestZipfRankFrequencies(t *testing.T) {
	z := newZipf(1000)
	rng := xrand.New(3)
	counts := make([]int, 1000)
	for i := 0; i < 400000; i++ {
		counts[z.draw(rng.Float64())]++
	}
	// Zipf(1.0): rank 1 is drawn ten times as often as rank 10.
	if ratio := float64(counts[0]) / float64(counts[9]); ratio < 9 || ratio > 11 {
		t.Errorf("rank 1 was drawn %.2f times as often as rank 10, want about 10", ratio)
	}
	if z.draw(0) != 0 || z.draw(0.999999999) != 999 {
		t.Errorf("the ends of [0,1) map to ranks %d and %d, want 0 and 999", z.draw(0), z.draw(0.999999999))
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median of four = %v, want 3", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if v, ok := percentile(sorted, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %d, %t; want 990 with ten samples beyond it", v, ok)
	}
	if _, ok := percentile(sorted[:999], 0.99); ok {
		t.Error("p99 of 999 samples has only nine beyond it and must say so")
	}
	if v, ok := percentile(sorted, 0.50); v != 500 || !ok {
		t.Errorf("p50 of 1..1000 = %d, %t; want 500", v, ok)
	}
}

func TestMedianOverSlicesIgnoresABurst(t *testing.T) {
	w := &window{}
	for i := 0; i < 10; i++ {
		s := sliceStats{dur: time.Second, decisions: 1000}
		if i == 3 || i == 7 { // a burst: disturbed, and it shows in the numbers
			s.disturbed, s.decisions = true, 400
		}
		w.slices = append(w.slices, s)
	}
	perSecond := func(s sliceStats) float64 { return float64(s.decisions) / s.dur.Seconds() }
	if kept := w.kept(10); len(kept) != 8 || over(kept, perSecond) != 1000 {
		t.Errorf("8 clean slices of 10: kept %d, median %v; want 8 and 1000", len(kept), over(kept, perSecond))
	}
	// Fewer than 80% clean: the run reports all it saw.
	w.slices[0].disturbed = true
	if kept := w.kept(10); len(kept) != 10 {
		t.Errorf("7 clean slices of 10: kept %d, want all 10", len(kept))
	}
}

func TestDisturbanceGuardUsesHostCountersOnly(t *testing.T) {
	a := edge{}
	quiet := edge{host: hostCPU{busy: 150, total: 200}, self: pidCPU{user: 40}, child: pidCPU{user: 100, sys: 5}}
	if disturbed(a, quiet) {
		t.Errorf("other share %.3f flagged as disturbed", otherShare(a, quiet))
	}
	noisy := edge{host: hostCPU{busy: 150, steal: 40, total: 200}, self: pidCPU{user: 40}, child: pidCPU{user: 100, sys: 5}}
	if got := otherShare(a, noisy); math.Abs(got-0.225) > 1e-12 || !disturbed(a, noisy) {
		t.Errorf("other share = %.3f, disturbed %t; want 0.225, true", got, disturbed(a, noisy))
	}
}

func TestProcParsers(t *testing.T) {
	cpu, err := parsePidStat("4242 (aa serve) x) S 1 4242 4242 0 -1 4194560 9000 0 12 0 731 209 0 0 20 0 9 0 100 1800000000 20000 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0\n")
	if err != nil || cpu.user != 731 || cpu.sys != 209 || cpu.total() != 940 {
		t.Errorf("pid stat = %+v, %v; want utime 731 stime 209", cpu, err)
	}
	if _, err := parsePidStat("4242 (aa-serve) S 1 2"); err == nil {
		t.Error("a truncated pid stat line must not parse")
	}
	hwm, err := parseVmHWM("Name:\taa-serve\nVmPeak:\t 1821000 kB\nVmHWM:\t   88120 kB\nVmRSS:\t   87860 kB\n")
	if err != nil || hwm != 88120 {
		t.Errorf("VmHWM = %d, %v; want 88120", hwm, err)
	}
	if _, err := parseVmHWM("Name:\taa-serve\n"); err == nil {
		t.Error("a status text without VmHWM must not parse")
	}
	host, err := parseHostStat("cpu  1000 20 300 5000 40 5 35 60 0 0\ncpu0 500 10 150 2500 20 2 17 30 0 0\nintr 1\n")
	if err != nil || host.busy != 1360 || host.steal != 60 || host.total != 6460 {
		t.Errorf("host stat = %+v, %v; want busy 1360 steal 60 total 6460", host, err)
	}
	if _, err := parseHostStat("cpu0 1 2 3 4 5 6 7 8\n"); err == nil {
		t.Error("a stat text without the aggregate cpu line must not parse")
	}
}

// inProcess stands the workload up against a service in this process,
// built from the small fixture's lists: no child, same handler.
func inProcess(t *testing.T, name string) (*env, *loadgen) {
	t.Helper()
	e := &env{fix: smallFixture(), tmp: t.TempDir()}
	e.cfg = runConfig{workload: name, seed: 11, window: 2 * sliceDur}
	var err error
	if e.lists, err = e.fix.writeLists(e.tmp); err != nil {
		t.Fatal(err)
	}
	if e.w, err = newWorkload(name, e.fix, e.cfg.seed, 2, testScale); err != nil {
		t.Fatal(err)
	}
	if e.oracle, err = newOracle(e.fix); err != nil {
		t.Fatal(err)
	}
	if err := e.decideSamples(); err != nil {
		t.Fatal(err)
	}
	state := e.tmp + "/state"
	if err := os.Mkdir(state, 0o755); err != nil {
		t.Fatal(err)
	}
	svc, err := e.newService(context.Background(), state)
	if err != nil {
		t.Fatal(err)
	}
	base, stop, err := serveInProcess(svc, func(h http.Handler) http.Handler { return h })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	lg := newLoadgen(e.w, e.fix, e.lists, base)
	lg.sliceDur = 50 * time.Millisecond
	return e, lg
}

func TestSmokeEveryWorkloadInProcess(t *testing.T) {
	for _, name := range workloadNames {
		e, lg := inProcess(t, name)
		ctx := context.Background()
		lg.replay(ctx, e.w.preload())
		win, err := lg.measure(ctx, 0, e.cfg.slices())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := &result{metrics: map[string]float64{}}
		if err := e.windowMetrics(res, lg, win, &childStats{}, &childStats{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lg.failed.Load() != 0 || lg.mismatches != 0 {
			t.Fatalf("%s: %d of %d operations failed, first: %v", name, lg.failed.Load(), lg.attempted.Load(), lg.firstErr)
		}
		if res.metrics["decisions_per_s"] <= 0 || res.metrics["call_p50_us"] <= 0 {
			t.Errorf("%s: nothing measured: %v", name, res.metrics)
		}
		if name == wlReloadChurn && lg.completed.Load() == 0 {
			t.Errorf("%s: no reload ran under load", name)
		}
	}
}

func TestOracleFailsTheRunOnAFlippedVerdict(t *testing.T) {
	e, lg := inProcess(t, wlPageHot)
	// Flip what the oracle expects of one sampled tuple that the pre-load
	// is sure to send.
	flipped := false
	for i := range e.w.samples {
		s := &e.w.samples[i]
		if s.want[variantA][0].verdict == "no-match" {
			s.want[variantA][0].verdict = "blocked"
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("the sample holds no no-match tuple to flip")
	}
	lg.replay(context.Background(), e.w.preload())
	if lg.mismatches == 0 || lg.failed.Load() == 0 {
		t.Fatalf("a flipped expectation went unnoticed over %d calls", lg.attempted.Load())
	}
	res := &result{attempted: lg.attempted.Load(), failed: lg.failed.Load(), mismatches: lg.mismatches, firstErr: lg.firstErr, metrics: map[string]float64{}}
	if err := report(e.cfg, res, nil); err == nil {
		t.Error("a run with an oracle mismatch must exit non-zero")
	}
}
