package decision

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"acceptableads/internal/engine"
	"acceptableads/internal/filter"
)

// nl parses body as one named list — shorthand for canary/chaos sources.
func nl(name, body string) engine.NamedList {
	return engine.NamedList{Name: name, List: filter.ParseListString(name, body)}
}

// swapSource is a Source whose payload the test swaps between reloads —
// the "list server started serving something else" chaos knob.
type swapSource struct {
	mu    sync.Mutex
	lists []engine.NamedList
	loads int
}

func (s *swapSource) set(lists ...engine.NamedList) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lists = lists
}

func (s *swapSource) Load(context.Context) ([]engine.NamedList, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	return s.lists, nil
}

// canaryBase is a healthy six-entry easylist revision.
const canaryBase = "||ads.example.com^\n||track.io^$script\n/banner/*$image\n||popups.example.net^\n||metrics.example.org^\n##.ad-frame"

// TestCanaryRejectsTruncatedSource is the chaos drill behind the canary:
// the list server starts serving a truncated payload (the classic bad
// deploy — most filters gone), then a garbage payload (mostly parse
// errors). Both candidate snapshots must be quarantined: the reload
// errors, the rejection counters move, and — the actual point — the
// serving snapshot and its verdicts never change.
func TestCanaryRejectsTruncatedSource(t *testing.T) {
	src := &swapSource{}
	src.set(nl("easylist", canaryBase))
	svc, err := New(context.Background(), Config{Source: src, CacheSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	before := svc.Snapshot()

	blocked := mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/")
	clean := mustRequest(t, "http://fine.example.net/app.js", "http://news.example.org/")
	wantBlocked, _, _ := svc.MatchProfile(blocked, "")
	wantClean, _, _ := svc.MatchProfile(clean, "")
	if wantBlocked.Verdict != engine.Blocked || wantClean.Verdict != engine.NoMatch {
		t.Fatalf("baseline verdicts = %v / %v", wantBlocked.Verdict, wantClean.Verdict)
	}

	// Truncation: the payload cut off after the first filter. The filter
	// count collapses 6 -> 1, tripping the delta bound.
	src.set(nl("easylist", canaryBase[:strings.Index(canaryBase, "\n")]))
	if _, err := svc.Reload(context.Background()); err == nil {
		t.Fatal("truncated payload published")
	} else if !strings.Contains(err.Error(), "canary") {
		t.Fatalf("rejection error %q does not name the canary", err)
	}

	// Garbage: three of four entries fail to parse, tripping the
	// parse-error-rate bound before the delta check even runs.
	src.set(nl("easylist", "##\n##\n##\n||ads.example.com^"))
	if _, err := svc.Reload(context.Background()); err == nil {
		t.Fatal("garbage payload published")
	} else if !strings.Contains(err.Error(), "parse-error rate") {
		t.Fatalf("rejection error %q does not name the parse-error rate", err)
	}

	if svc.Snapshot() != before {
		t.Fatal("rejected reload replaced the serving snapshot")
	}
	st := svc.Stats()
	if st.ReloadsRejected != 2 || st.ReloadFailures != 2 {
		t.Errorf("rejected=%d failures=%d, want 2/2", st.ReloadsRejected, st.ReloadFailures)
	}
	if st.SnapshotVersion != before.Version {
		t.Errorf("snapshot version moved to %d across rejections", st.SnapshotVersion)
	}

	// The acceptance bar: no verdict changed.
	if got, _, _ := svc.MatchProfile(blocked, ""); !reflect.DeepEqual(got, wantBlocked) {
		t.Fatalf("blocked verdict changed after rejected reloads: %+v vs %+v", got, wantBlocked)
	}
	if got, _, _ := svc.MatchProfile(clean, ""); !reflect.DeepEqual(got, wantClean) {
		t.Fatalf("clean verdict changed after rejected reloads: %+v vs %+v", got, wantClean)
	}

	// The source recovers; the next reload publishes normally.
	src.set(nl("easylist", canaryBase))
	snap, err := svc.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != before.Version+1 {
		t.Errorf("recovered reload version = %d, want %d", snap.Version, before.Version+1)
	}
}

func TestCanaryRejectsEmptyEngine(t *testing.T) {
	_, err := New(context.Background(), Config{
		Source: Lists(nl("easylist", "! a list of nothing but comments\n! truly nothing")),
	})
	if err == nil {
		t.Fatal("empty engine published as the first snapshot")
	}
	if !strings.Contains(err.Error(), "canary") {
		t.Fatalf("error %q does not name the canary", err)
	}
}

func TestCanaryDisableAdmitsAnything(t *testing.T) {
	src := &swapSource{}
	src.set(nl("easylist", canaryBase))
	svc, err := New(context.Background(), Config{Source: src, Canary: CanaryConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	src.set(nl("easylist", "||ads.example.com^")) // 6 -> 1 collapse
	if _, err := svc.Reload(context.Background()); err != nil {
		t.Fatalf("disabled canary still rejected: %v", err)
	}
}

func TestCanaryGoldenProbes(t *testing.T) {
	src := &swapSource{}
	src.set(nl("easylist", canaryBase))
	svc, err := New(context.Background(), Config{
		Source: src,
		Canary: CanaryConfig{Probes: []Probe{
			{URL: "http://ads.example.com/x.js", Document: "http://news.example.org/",
				Type: "script", Want: "blocked"},
			// Differential probe: no pinned verdict, must simply not change.
			{URL: "http://track.io/collect.js", Document: "http://news.example.org/",
				Type: "script"},
		}},
	})
	if err != nil {
		t.Fatal(err) // differential probe must not block the first publish
	}
	before := svc.Snapshot()

	// Same filter count, but the ad-server filter is gone: only the probe
	// corpus can catch this.
	src.set(nl("easylist", strings.Replace(canaryBase,
		"||ads.example.com^", "||other.example.com^", 1)))
	if _, err := svc.Reload(context.Background()); err == nil {
		t.Fatal("snapshot that un-blocks the golden probe published")
	} else if !strings.Contains(err.Error(), "probe") {
		t.Fatalf("rejection error %q does not name the probe", err)
	}

	// A revision flipping the differential probe's verdict (track.io
	// filter dropped) is a regression even though no Want was pinned.
	src.set(nl("easylist", strings.Replace(canaryBase,
		"||track.io^$script", "||tracker2.example^$script", 1)))
	if _, err := svc.Reload(context.Background()); err == nil {
		t.Fatal("snapshot that flips the differential probe published")
	}

	if svc.Snapshot() != before {
		t.Fatal("probe-rejected reload replaced the snapshot")
	}

	// Benign growth keeps both probes' verdicts: publishes.
	src.set(nl("easylist", canaryBase+"\n||extra.example.net^"))
	if _, err := svc.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCanaryRejectsUnknownProbeType(t *testing.T) {
	_, err := New(context.Background(), Config{
		Source: Lists(nl("easylist", canaryBase)),
		Canary: CanaryConfig{Probes: []Probe{{URL: "http://x.example/", Type: "not-a-type"}}},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown content type") {
		t.Fatalf("err = %v, want unknown content type", err)
	}
}

// TestRollbackLifecycle publishes three generations with distinct
// content, then walks back through the retained ring: each rollback is a
// new monotonic version serving the previous generation's verdicts, and
// walking past the oldest retained snapshot fails cleanly.
func TestRollbackLifecycle(t *testing.T) {
	gen := func(n string) string { return canaryBase + "\n||" + n + ".example^" }
	src := &swapSource{}
	src.set(nl("easylist", gen("gen1")))
	svc, err := New(context.Background(), Config{Source: src, CacheSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"gen2", "gen3"} {
		src.set(nl("easylist", gen(n)))
		if _, err := svc.Reload(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	verdict := func(n string) engine.Verdict {
		d, _, _ := svc.MatchProfile(mustRequest(t, "http://"+n+".example/ad.js", "http://news.example.org/"), "")
		return d.Verdict
	}
	if v := svc.Snapshot().Version; v != 3 {
		t.Fatalf("version after three publishes = %d", v)
	}
	if verdict("gen3") != engine.Blocked || verdict("gen2") != engine.NoMatch {
		t.Fatal("generation 3 not serving")
	}

	// First rollback: v4 serving generation 2's content.
	snap, err := svc.Rollback(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 4 || snap.RollbackOf != 2 {
		t.Fatalf("rollback snapshot = v%d rollbackOf=%d, want v4 of 2", snap.Version, snap.RollbackOf)
	}
	if verdict("gen2") != engine.Blocked || verdict("gen3") != engine.NoMatch {
		t.Fatal("rollback did not restore generation 2 verdicts")
	}
	if svc.Cache().Len() != 0 {
		// verdict() above repopulates; check right after is too late — but
		// a stale gen3 hit would have failed the verdict asserts already.
		t.Log("cache repopulated after rollback (expected)")
	}

	// Second rollback walks further back, to generation 1.
	snap, err = svc.Rollback(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 5 || snap.RollbackOf != 1 {
		t.Fatalf("second rollback = v%d rollbackOf=%d, want v5 of 1", snap.Version, snap.RollbackOf)
	}
	if verdict("gen1") != engine.Blocked || verdict("gen2") != engine.NoMatch {
		t.Fatal("second rollback did not restore generation 1 verdicts")
	}

	// Nothing older is retained.
	if _, err := svc.Rollback(context.Background()); err == nil {
		t.Fatal("rollback past the oldest retained snapshot succeeded")
	}
	if st := svc.Stats(); st.Rollbacks != 2 {
		t.Errorf("rollbacks = %d, want 2", st.Rollbacks)
	}

	// Rolling forward again is a fresh reload, not a rollback.
	src.set(nl("easylist", gen("gen4")))
	snap, err = svc.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 6 || snap.RollbackOf != 0 {
		t.Fatalf("post-rollback reload = v%d rollbackOf=%d, want fresh v6", snap.Version, snap.RollbackOf)
	}
	if verdict("gen4") != engine.Blocked {
		t.Fatal("generation 4 not serving after recovery reload")
	}
}

func TestRollbackKeepBound(t *testing.T) {
	src := &swapSource{}
	src.set(nl("easylist", canaryBase))
	svc, err := New(context.Background(), Config{Source: src, KeepSnapshots: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := svc.Reload(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Ring of 2: exactly one rollback step is available.
	if _, err := svc.Rollback(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Rollback(context.Background()); err == nil {
		t.Fatal("ring of 2 allowed a second rollback")
	}
}
