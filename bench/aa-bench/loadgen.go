package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acceptableads/internal/decision/api"
	"acceptableads/internal/engine"
)

// Window shape. Every number a run reports is computed per slice and
// reported as the median over slices, so a burst shorter than half the
// window cannot move it.
const (
	sliceDur   = 1500 * time.Millisecond
	warmSlices = 2 // discarded: the workload's own traffic warming caches and heap
	// A slice in which other processes took more than this share of the
	// host's CPU time is disturbed and left out of the medians.
	disturbedShare = 0.20
	// The window is extended by up to this share to replace disturbed
	// slices, and medians want at least this share of clean ones.
	extraSlices = 0.3
	minClean    = 0.8
)

// rec is one completed call.
type rec struct {
	slice int32  // slice it completed in
	n     int32  // verified decisions it carried; 0 for a failed call
	lat   uint32 // request sent to reply parsed, ns
	build uint32 // building the call, ns
}

// loadgen drives one workload against one service in a closed loop: one
// goroutine per connection, each sending its next call when the previous
// reply has been verified.
type loadgen struct {
	w     *workload
	fix   *fixture
	lists listFiles
	conns []*api.Client
	// sliceDur is the length of a slice; reload_churn reloads a third of
	// the way into every one, so every slice sees the same pattern.
	sliceDur time.Duration

	slice      atomic.Int32 // current slice, -1 outside the window
	stop       atomic.Bool
	nextReload atomic.Int64 // unix ns at which connection 0 reloads; 0 = none due

	// issued counts reloads sent, completed those answered: a reply sent
	// after completed=c and read before issued=i was served by a snapshot
	// version in [1+c, 1+i].
	issued, completed atomic.Int64

	attempted, failed atomic.Int64
	verdicts          [3]atomic.Int64 // no-match, blocked, allowed

	mu         sync.Mutex
	firstErr   error // first failed operation, for the report
	mismatches int   // replies that contradict the oracle
	recs       [][]rec
	reloads    []reloadRec
}

// reloadRec is one reload issued under load.
type reloadRec struct {
	slice int32
	dur   time.Duration
}

func newLoadgen(w *workload, fix *fixture, lists listFiles, base string) *loadgen {
	lg := &loadgen{w: w, fix: fix, lists: lists, sliceDur: sliceDur, recs: make([][]rec, w.conns)}
	for c := 0; c < w.conns; c++ {
		lg.conns = append(lg.conns, newConn(base))
	}
	lg.slice.Store(-1)
	return lg
}

func (lg *loadgen) fail(err error) {
	lg.failed.Add(1)
	lg.mu.Lock()
	if lg.firstErr == nil {
		lg.firstErr = err
	}
	lg.mu.Unlock()
}

func (lg *loadgen) mismatch(err error) {
	lg.mu.Lock()
	lg.mismatches++
	lg.mu.Unlock()
	lg.fail(err)
}

// reply is the part of an answer the harness checks.
type reply struct {
	results  []api.MatchResponse
	snapshot uint64 // batches only
	profile  string // batches only
}

// send puts one call on connection conn and returns the parsed reply with
// the latency the caller observed.
func (lg *loadgen) send(ctx context.Context, conn int, c *call) (reply, time.Duration, error) {
	t0 := time.Now()
	if c.batch != nil {
		out, err := lg.conns[conn].MatchBatch(ctx, *c.batch)
		lat := time.Since(t0)
		if err != nil {
			return reply{}, lat, err
		}
		return reply{results: out.Results, snapshot: out.Snapshot, profile: out.Profile}, lat, nil
	}
	out, err := lg.conns[conn].Match(ctx, c.single)
	lat := time.Since(t0)
	if err != nil {
		return reply{}, lat, err
	}
	return reply{results: []api.MatchResponse{*out}}, lat, nil
}

// do sends one call and verifies the reply; it returns the latency and
// the number of verified decisions.
func (lg *loadgen) do(ctx context.Context, conn int, c *call) (time.Duration, int) {
	lg.attempted.Add(1)
	lo := uint64(1 + lg.completed.Load())
	rep, lat, err := lg.send(ctx, conn, c)
	hi := uint64(1 + lg.issued.Load())
	if err != nil {
		lg.fail(fmt.Errorf("%s call: %w", lg.w.name, err))
		return lat, 0
	}
	if err := lg.verify(c, rep, lo, hi); err != nil {
		return lat, 0
	}
	return lat, len(rep.results)
}

// verify checks one reply and counts what it finds: a reply that
// contradicts the oracle or comes from an impossible snapshot is a
// mismatch, any other defect a failed operation.
func (lg *loadgen) verify(c *call, rep reply, lo, hi uint64) error {
	counts, mismatch, err := lg.check(c, rep, lo, hi)
	switch {
	case mismatch:
		lg.mismatch(err)
	case err != nil:
		lg.fail(err)
	default:
		for i, n := range counts {
			lg.verdicts[i].Add(n)
		}
	}
	return err
}

// check holds one reply against what the harness knows: shape, per-entry
// errors, the snapshot version it may have come from (lo to hi, see
// issued), and — on sampled tuples — verdict and winning filter text
// against the oracle for that version and profile. It returns the reply's
// verdict counts (no-match, blocked, allowed).
func (lg *loadgen) check(c *call, rep reply, lo, hi uint64) (counts [3]int64, mismatch bool, err error) {
	if len(rep.results) != c.decisions() {
		return counts, false, fmt.Errorf("reply has %d results for %d requests", len(rep.results), c.decisions())
	}
	v := variantOfVersion(lo) // singles carry no version; none are sent across a reload
	if c.batch != nil {
		if rep.snapshot < lo || rep.snapshot > hi {
			return counts, true, fmt.Errorf("reply from snapshot v%d, expected v%d..v%d", rep.snapshot, lo, hi)
		}
		if rep.profile != engine.DefaultProfile {
			return counts, true, fmt.Errorf("batch decided under profile %q, expected %s", rep.profile, engine.DefaultProfile)
		}
		v = variantOfVersion(rep.snapshot)
	}
	p := 0
	if c.easy {
		p = 1
	}
	for i := range rep.results {
		r := &rep.results[i]
		if r.Error != "" {
			return counts, false, fmt.Errorf("entry %d: %s", i, r.Error)
		}
		switch r.Verdict {
		case "no-match":
			counts[0]++
		case "blocked":
			counts[1]++
		case "allowed":
			counts[2]++
		default:
			return counts, true, fmt.Errorf("entry %d: unknown verdict %q", i, r.Verdict)
		}
		if c.expect == nil || c.expect[i] < 0 {
			continue
		}
		s := &lg.w.samples[c.expect[i]]
		if got, want := verdictOfReply(r), s.want[v][p]; got != want {
			return counts, true, fmt.Errorf("oracle mismatch on %s %s (doc %s, variant %d, profile %d): got %+v, want %+v",
				s.t.typ, s.t.url, s.t.doc, v, p, got, want)
		}
	}
	return counts, false, nil
}

// variantOfVersion: version 1 serves variant A and every reload pushes
// the other variant.
func variantOfVersion(version uint64) variant { return variant((version - 1) % uint64(numVariants)) }

// reload pushes the other list variant and reloads the service over
// connection conn, returning how long the push took to serve.
func (lg *loadgen) reload(ctx context.Context, conn int) (time.Duration, error) {
	lg.attempted.Add(1)
	next := uint64(1 + lg.issued.Add(1))
	t0 := time.Now()
	err := lg.fix.pushVariant(lg.lists, variantOfVersion(next))
	var out *api.ReloadResponse
	if err == nil {
		out, err = lg.conns[conn].Reload(ctx)
	}
	dur := time.Since(t0)
	if err == nil && out.Snapshot != next {
		err = fmt.Errorf("reload published v%d, expected v%d", out.Snapshot, next)
	}
	if err != nil {
		// The version sequence is lost; nothing after this can be verified.
		lg.stop.Store(true)
		err = fmt.Errorf("reload: %w", err)
		lg.mismatch(err)
		return dur, err
	}
	lg.completed.Add(1)
	return dur, nil
}

// worker is one connection's closed loop over src, which returns nil
// when the phase is over.
func (lg *loadgen) worker(ctx context.Context, conn int, src func() *call, keep bool) {
	for !lg.stop.Load() && ctx.Err() == nil {
		if conn == 0 {
			if due := lg.nextReload.Load(); due != 0 && time.Now().UnixNano() >= due {
				lg.nextReload.Store(0)
				if dur, err := lg.reload(ctx, conn); err == nil {
					lg.mu.Lock()
					lg.reloads = append(lg.reloads, reloadRec{slice: lg.slice.Load(), dur: dur})
					lg.mu.Unlock()
				}
				continue
			}
		}
		t0 := time.Now()
		c := src()
		if c == nil {
			return
		}
		build := time.Since(t0)
		lat, n := lg.do(ctx, conn, c)
		if keep {
			lg.recs[conn] = append(lg.recs[conn], rec{
				slice: lg.slice.Load(), n: int32(n),
				lat: clampU32(lat), build: clampU32(build),
			})
		}
	}
}

func clampU32(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// replay sends calls once, spread over the connections in order.
func (lg *loadgen) replay(ctx context.Context, calls []*call) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range lg.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg.worker(ctx, c, func() *call {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					return nil
				}
				return calls[i]
			}, false)
		}(c)
	}
	wg.Wait()
}

// edge is what the harness reads from the kernel at a slice boundary.
type edge struct {
	t     time.Time
	child pidCPU
	self  pidCPU
	host  hostCPU
}

func readEdge(pid int) (edge, error) {
	e := edge{t: time.Now()}
	var err error
	if e.host, err = readHostCPU(); err != nil {
		return e, err
	}
	if e.self, err = readPidCPU(os.Getpid()); err != nil {
		return e, err
	}
	if pid != 0 {
		if e.child, err = readPidCPU(pid); err != nil {
			return e, err
		}
	}
	return e, nil
}

// sliceStats is one slice of the window.
type sliceStats struct {
	dur         time.Duration
	calls       int
	decisions   int
	lats        []int64 // call latencies, ns, sorted
	p50, p99    time.Duration
	childCPU    float64 // seconds
	childSys    float64
	selfCPU     float64
	otherShare  float64 // CPU time of everything else, as a share of the host's
	stealShare  float64
	buildPerOp  time.Duration
	disturbed   bool
	reloadUnder []time.Duration
}

// window is the measured part of a run.
type window struct{ slices []sliceStats }

// measure runs the workload's traffic for warmSlices discarded slices and
// then the window: want clean slices, extended while slices come out
// disturbed. pid is the serving process, or 0 when it is this one.
func (lg *loadgen) measure(ctx context.Context, pid, want int) (*window, error) {
	churn := lg.w.name == wlReloadChurn
	var wg sync.WaitGroup
	for c := range lg.conns {
		s := lg.w.stream(c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg.worker(ctx, c, s.next, true)
		}(c)
	}
	// Whatever ends the window ends the workers, and leaves the generator
	// ready for the lifecycle tail.
	defer func() {
		lg.stop.Store(true)
		wg.Wait()
		lg.stop.Store(false)
		lg.slice.Store(-1)
	}()

	start := time.Now()
	// runSlice arms the slice's reload and sleeps to the slice's end.
	runSlice := func(i int) error {
		sliceStart := start.Add(time.Duration(i) * lg.sliceDur)
		if churn {
			lg.nextReload.Store(sliceStart.Add(lg.sliceDur / 3).UnixNano())
		}
		select {
		case <-time.After(time.Until(sliceStart.Add(lg.sliceDur))):
		case <-ctx.Done():
			return ctx.Err()
		}
		if lg.stop.Load() {
			return errors.New("load generator stopped early")
		}
		return nil
	}
	for i := 0; i < warmSlices; i++ {
		if err := runSlice(i); err != nil {
			return nil, err
		}
	}
	first, err := readEdge(pid)
	if err != nil {
		return nil, err
	}
	edges := []edge{first}
	maxSlices := want + int(math.Ceil(extraSlices*float64(want)))
	for i, clean := 0, 0; i < maxSlices && clean < want; i++ {
		lg.slice.Store(int32(i))
		if err := runSlice(warmSlices + i); err != nil {
			return nil, err
		}
		e, err := readEdge(pid)
		if err != nil {
			return nil, err
		}
		edges = append(edges, e)
		if !disturbed(edges[i], edges[i+1]) {
			clean++
		}
	}
	lg.stop.Store(true)
	wg.Wait() // the workers own lg.recs until they have returned
	return lg.window(edges), nil
}

// disturbed applies the guard to one slice. It looks at the host's
// counters only, never at what the slice measured.
func disturbed(a, b edge) bool {
	return otherShare(a, b) > disturbedShare
}

func otherShare(a, b edge) float64 {
	total := float64(b.host.total - a.host.total)
	if total <= 0 {
		return 0
	}
	busy := float64(b.host.busy - a.host.busy + b.host.steal - a.host.steal)
	ours := float64(b.self.total() - a.self.total() + b.child.total() - a.child.total())
	return math.Max(0, busy-ours) / total
}

// window folds the recorded calls into per-slice statistics.
func (lg *loadgen) window(edges []edge) *window {
	n := len(edges) - 1
	w := &window{slices: make([]sliceStats, n)}
	lats := make([][]int64, n)
	builds := make([]int64, n)
	for _, rs := range lg.recs {
		for _, r := range rs {
			if r.slice < 0 || int(r.slice) >= n {
				continue
			}
			s := &w.slices[r.slice]
			s.calls++
			s.decisions += int(r.n)
			lats[r.slice] = append(lats[r.slice], int64(r.lat))
			builds[r.slice] += int64(r.build)
		}
	}
	for _, r := range lg.reloads {
		if r.slice >= 0 && int(r.slice) < n {
			w.slices[r.slice].reloadUnder = append(w.slices[r.slice].reloadUnder, r.dur)
		}
	}
	const tick = 1.0 / ticksPerSecond
	for i := range w.slices {
		s, a, b := &w.slices[i], edges[i], edges[i+1]
		s.dur = b.t.Sub(a.t)
		s.childCPU = float64(b.child.total()-a.child.total()) * tick
		s.childSys = float64(b.child.sys-a.child.sys) * tick
		s.selfCPU = float64(b.self.total()-a.self.total()) * tick
		s.otherShare = otherShare(a, b)
		if total := float64(b.host.total - a.host.total); total > 0 {
			s.stealShare = float64(b.host.steal-a.host.steal) / total
		}
		s.disturbed = disturbed(a, b)
		s.lats = lats[i]
		sort.Slice(s.lats, func(x, y int) bool { return s.lats[x] < s.lats[y] })
		if s.calls > 0 {
			p50, _ := percentile(s.lats, 0.50)
			p99, _ := percentile(s.lats, 0.99)
			s.p50, s.p99 = time.Duration(p50), time.Duration(p99)
			s.buildPerOp = time.Duration(builds[i] / int64(s.calls))
		}
	}
	return w
}

// kept returns the slices the medians are taken over: the clean ones, or
// all of them when too few are clean to say anything — the run then
// reports what it saw and host.disturbed_slices says how far to trust it.
func (w *window) kept(want int) []sliceStats {
	var clean []sliceStats
	for _, s := range w.slices {
		if !s.disturbed {
			clean = append(clean, s)
		}
	}
	if float64(len(clean)) < minClean*float64(want) {
		return w.slices
	}
	return clean
}

// over is the median over slices of f.
func over(slices []sliceStats, f func(sliceStats) float64) float64 {
	vs := make([]float64, len(slices))
	for i, s := range slices {
		vs[i] = f(s)
	}
	return median(vs)
}
