package decision

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acceptableads/internal/engine"
)

// deadSource fails every Load — the network is down.
type deadSource struct{ loads int }

func (s *deadSource) Load(context.Context) ([]engine.NamedList, error) {
	s.loads++
	return nil, fmt.Errorf("list server unreachable (load %d)", s.loads)
}

// TestWarmStartServesPersistedSnapshot is the restart drill: a service
// publishes (persisting its lists), the process "dies", and a new
// service pointed at the same state dir comes up serving the last-good
// snapshot without its Source ever answering.
func TestWarmStartServesPersistedSnapshot(t *testing.T) {
	dir := t.TempDir()
	svc1, err := New(context.Background(), Config{
		Source: Lists(testLists()...), StateDir: dir, CacheSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err != nil {
		t.Fatalf("publish did not persist a manifest: %v", err)
	}
	wantBlocked, _, _ := svc1.MatchProfile(mustRequest(t,
		"http://ads.example.com/x.js", "http://news.example.org/"), "")
	if wantBlocked.Verdict != engine.Blocked {
		t.Fatalf("baseline verdict = %v", wantBlocked.Verdict)
	}

	// Restart with the network down: warm start or bust.
	dead := &deadSource{}
	svc2, err := New(context.Background(), Config{
		Source: dead, StateDir: dir, MaxAttempts: 1, CacheSize: 64,
	})
	if err != nil {
		t.Fatalf("warm start failed despite persisted state: %v", err)
	}
	if dead.loads != 0 {
		t.Errorf("warm start hit the Source %d times", dead.loads)
	}
	snap := svc2.Snapshot()
	if !snap.WarmStart {
		t.Error("restored snapshot not marked WarmStart")
	}
	if !snap.BinaryStart {
		t.Error("warm start did not take the binary snapshot path")
	}
	if !svc2.Ready() {
		t.Error("warm-started service not ready")
	}
	d, _, _ := svc2.MatchProfile(mustRequest(t,
		"http://ads.example.com/x.js", "http://news.example.org/"), "")
	if d.Verdict != engine.Blocked {
		t.Fatalf("warm-started verdict = %v, want blocked", d.Verdict)
	}

	// A later reload against the dead source fails but the warm snapshot
	// keeps serving — same degradation contract as any failed reload.
	if _, err := svc2.Reload(context.Background()); err == nil {
		t.Fatal("reload against a dead source succeeded")
	}
	if svc2.Snapshot() != snap {
		t.Fatal("failed reload displaced the warm-start snapshot")
	}
}

func TestWarmStartCorruptManifestFallsBack(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := New(context.Background(), Config{
		Source: Lists(testLists()...), StateDir: dir,
	})
	if err != nil {
		t.Fatalf("corrupt state prevented startup: %v", err)
	}
	if svc.Snapshot().WarmStart {
		t.Error("snapshot marked WarmStart despite corrupt manifest")
	}
}

func TestWarmStartRejectsEscapingManifest(t *testing.T) {
	dir := t.TempDir()
	manifest := `{"version":1,"lists":[{"name":"evil","file":"../outside.txt","filters":1}]}`
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadManifest(dir); err == nil ||
		!strings.Contains(err.Error(), "invalid file") {
		t.Fatalf("loadManifest(escaping manifest) = %v, want invalid-file error", err)
	}

	snapManifest := `{"version":1,"lists":[{"name":"l","file":"v1-l.txt","filters":1}],"snapshot":"../outside.snap"}`
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(snapManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadManifest(dir); err == nil ||
		!strings.Contains(err.Error(), "invalid file") {
		t.Fatalf("loadManifest(escaping snapshot) = %v, want invalid-file error", err)
	}
}

// TestWarmStartBinaryFallsBackToLists: a damaged binary snapshot must
// not take the service down or past the checksum — warm start falls back
// to recompiling the persisted raw list text.
func TestWarmStartBinaryFallsBackToLists(t *testing.T) {
	corruptions := map[string]func(path string, t *testing.T){
		"bit-flip": func(path string, t *testing.T) {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)/2] ^= 0x20
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(path string, t *testing.T) {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf[:len(buf)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"missing": func(path string, t *testing.T) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := New(context.Background(), Config{
				Source: Lists(testLists()...), StateDir: dir,
			}); err != nil {
				t.Fatal(err)
			}
			m, err := loadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if m.Snapshot == "" {
				t.Fatal("persist wrote no binary snapshot")
			}
			corrupt(filepath.Join(dir, m.Snapshot), t)

			svc, err := New(context.Background(), Config{
				Source: &deadSource{}, StateDir: dir, MaxAttempts: 1,
			})
			if err != nil {
				t.Fatalf("corrupt binary snapshot prevented warm start: %v", err)
			}
			snap := svc.Snapshot()
			if !snap.WarmStart || snap.BinaryStart {
				t.Errorf("warmStart=%t binaryStart=%t, want raw-list fallback (true, false)",
					snap.WarmStart, snap.BinaryStart)
			}
			d, _, _ := svc.MatchProfile(mustRequest(t,
				"http://ads.example.com/x.js", "http://news.example.org/"), "")
			if d.Verdict != engine.Blocked {
				t.Fatalf("fallback verdict = %v, want blocked", d.Verdict)
			}
		})
	}
}

// TestWarmStartBinaryRejectsSkew: a format-version bump or a changed
// profile configuration invalidates the binary snapshot (its profile
// membership is baked in) but not the raw lists.
func TestWarmStartBinaryRejectsSkew(t *testing.T) {
	setup := func(t *testing.T, profiles map[string][]string) string {
		dir := t.TempDir()
		if _, err := New(context.Background(), Config{
			Source: Lists(testLists()...), StateDir: dir, Profiles: profiles,
		}); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("format-version", func(t *testing.T) {
		dir := setup(t, nil)
		body, err := os.ReadFile(filepath.Join(dir, manifestFile))
		if err != nil {
			t.Fatal(err)
		}
		skewed := strings.Replace(string(body), `"snapshotFormat": `, `"snapshotFormat": 99`, 1)
		if skewed == string(body) {
			t.Fatal("manifest carries no snapshotFormat field")
		}
		if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(skewed), 0o644); err != nil {
			t.Fatal(err)
		}
		svc, err := New(context.Background(), Config{
			Source: &deadSource{}, StateDir: dir, MaxAttempts: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := svc.Snapshot()
		if !snap.WarmStart || snap.BinaryStart {
			t.Errorf("warmStart=%t binaryStart=%t, want raw-list fallback after format skew",
				snap.WarmStart, snap.BinaryStart)
		}
	})

	t.Run("profile-config", func(t *testing.T) {
		dir := setup(t, map[string][]string{"easy-only": {"easylist"}})
		svc, err := New(context.Background(), Config{
			Source: &deadSource{}, StateDir: dir, MaxAttempts: 1,
			Profiles: map[string][]string{"strict": {"*"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := svc.Snapshot()
		if !snap.WarmStart || snap.BinaryStart {
			t.Errorf("warmStart=%t binaryStart=%t, want raw-list fallback after profile change",
				snap.WarmStart, snap.BinaryStart)
		}
		if _, _, err := svc.MatchProfile(mustRequest(t,
			"http://ads.example.com/x.js", "http://news.example.org/"), "strict"); err != nil {
			t.Errorf("fallback engine lacks the new profile: %v", err)
		}
	})

	t.Run("profile-config-match", func(t *testing.T) {
		profiles := map[string][]string{"easy-only": {"easylist"}}
		dir := setup(t, profiles)
		svc, err := New(context.Background(), Config{
			Source: &deadSource{}, StateDir: dir, MaxAttempts: 1, Profiles: profiles,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := svc.Snapshot()
		if !snap.BinaryStart {
			t.Error("identical profile config should keep the binary path")
		}
		if _, _, err := svc.MatchProfile(mustRequest(t,
			"http://ads.example.com/x.js", "http://news.example.org/"), "easy-only"); err != nil {
			t.Errorf("decoded engine lacks the persisted profile: %v", err)
		}
	})
}

// TestWarmStartCanaryGuardsPersistedState: persisted state is validated
// like any other candidate — a state dir holding an effectively empty
// list must not warm-start an empty engine.
func TestWarmStartCanaryGuardsPersistedState(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "v1-easylist.txt"), []byte("! comments only\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := `{"version":1,"lists":[{"name":"easylist","file":"v1-easylist.txt","filters":0}]}`
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := New(context.Background(), Config{
		Source: Lists(testLists()...), StateDir: dir,
	})
	if err != nil {
		t.Fatalf("rejected state dir prevented startup: %v", err)
	}
	if svc.Snapshot().WarmStart {
		t.Error("empty persisted engine warm-started past the canary")
	}
	if svc.Snapshot().Engine.NumFilters() == 0 {
		t.Fatal("serving an empty engine")
	}
}

// TestPersistGCKeepsOnlyCurrentVersion reloads past the ring bound and
// rolls back once, checking after each that the state dir holds the
// manifest plus exactly the ring's generations: files of generations
// that left the ring are garbage-collected.
func TestPersistGCKeepsOnlyCurrentVersion(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(context.Background(), Config{
		Source: Lists(testLists()...), StateDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := svc.Reload(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	assertRing := func(want ...uint64) {
		t.Helper()
		m, err := loadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		wantFiles := map[string]bool{manifestFile: true}
		var got []uint64
		for _, g := range m.generations() {
			got = append(got, g.Version)
			if len(g.Lists) != len(testLists()) {
				t.Errorf("generation v%d persisted %d lists, want %d", g.Version, len(g.Lists), len(testLists()))
			}
			if g.Snapshot != fmt.Sprintf("v%d-engine.snap", g.Version) {
				t.Errorf("generation v%d names binary snapshot %q", g.Version, g.Snapshot)
			}
			for _, pl := range g.Lists {
				if !strings.HasPrefix(pl.File, fmt.Sprintf("v%d-", g.Version)) {
					t.Errorf("generation v%d names list file %q", g.Version, pl.File)
				}
				wantFiles[pl.File] = true
			}
			wantFiles[g.Snapshot] = true
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("manifest ring = %v, want %v", got, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !wantFiles[e.Name()] {
				t.Errorf("stale or unexpected state file %q survived GC", e.Name())
			}
			delete(wantFiles, e.Name())
		}
		for name := range wantFiles {
			t.Errorf("the manifest names %q, which is missing", name)
		}
	}
	assertRing(4, 5, 6, 7)
	if _, err := svc.Rollback(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertRing(4, 5, 6)

	// And the persisted state round-trips: a warm start from it serves
	// the same verdicts.
	svc2, err := New(context.Background(), Config{
		Source: &deadSource{}, StateDir: dir, MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _, _ := svc2.MatchProfile(mustRequest(t,
		"http://ads.example.com/x.js", "http://news.example.org/"), "")
	if d.Verdict != engine.Blocked {
		t.Fatalf("round-tripped verdict = %v, want blocked", d.Verdict)
	}
}

// genList is an easylist revision that blocks exactly its own
// generation's host, http://<n>.example/, on top of canaryBase.
func genList(n string) engine.NamedList {
	return nl("easylist", canaryBase+"\n||"+n+".example^")
}

// serves reports whether svc blocks generation n's host.
func serves(t *testing.T, svc *Service, n string) bool {
	t.Helper()
	d, _, err := svc.MatchProfile(mustRequest(t, "http://"+n+".example/ad.js", "http://news.example.org/"), "")
	if err != nil {
		t.Fatal(err)
	}
	return d.Verdict == engine.Blocked
}

// twoGenerations publishes gen1 then gen2 on a state dir.
func twoGenerations(t *testing.T, dir string) *Service {
	t.Helper()
	src := &swapSource{}
	src.set(genList("gen1"))
	svc, err := New(context.Background(), Config{Source: src, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	src.set(genList("gen2"))
	if _, err := svc.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestRollbackSurvivesRestart: a rollback rewrites the manifest, so a
// restart resumes the rolled-back generation at the same version and
// provenance, with the abandoned generation gone from the ring.
func TestRollbackSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	rb, err := twoGenerations(t, dir).Rollback(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rb.Version != 3 || rb.RollbackOf != 1 {
		t.Fatalf("rollback = v%d rollbackOf=%d, want v3 of 1", rb.Version, rb.RollbackOf)
	}

	svc, err := New(context.Background(), Config{
		Source: &deadSource{}, StateDir: dir, MaxAttempts: 1,
	})
	if err != nil {
		t.Fatalf("warm start after rollback failed: %v", err)
	}
	snap := svc.Snapshot()
	if !snap.WarmStart || snap.Version != rb.Version || snap.RollbackOf != rb.RollbackOf {
		t.Fatalf("restart = v%d rollbackOf=%d warm=%t, want warm v%d rollbackOf=%d",
			snap.Version, snap.RollbackOf, snap.WarmStart, rb.Version, rb.RollbackOf)
	}
	if !serves(t, svc, "gen1") || serves(t, svc, "gen2") {
		t.Fatal("restart does not serve the rolled-back generation 1")
	}
	if _, err := svc.Rollback(context.Background()); err == nil {
		t.Fatal("rollback past the rolled-back generation succeeded after restart")
	}
	if svc.Snapshot() != snap {
		t.Fatal("failed rollback displaced the serving snapshot")
	}
}

// TestRollbackLoadsPersistedGeneration: with a state dir the ring holds
// files, not engines. A rollback to a generation whose binary snapshot is
// corrupt recompiles its raw lists; one to a generation whose files are
// gone fails and leaves the serving snapshot, version and manifest as
// they were.
func TestRollbackLoadsPersistedGeneration(t *testing.T) {
	t.Run("corrupt-snap", func(t *testing.T) {
		dir := t.TempDir()
		svc := twoGenerations(t, dir)
		path := filepath.Join(dir, "v1-engine.snap")
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)/2] ^= 0x20
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := svc.Rollback(context.Background())
		if err != nil {
			t.Fatalf("rollback over a corrupt snapshot failed: %v", err)
		}
		if snap.Version != 3 || snap.RollbackOf != 1 {
			t.Fatalf("rollback = v%d rollbackOf=%d, want v3 of 1", snap.Version, snap.RollbackOf)
		}
		if !serves(t, svc, "gen1") || serves(t, svc, "gen2") {
			t.Fatal("rollback did not restore generation 1 verdicts")
		}
	})

	t.Run("files-deleted", func(t *testing.T) {
		dir := t.TempDir()
		svc := twoGenerations(t, dir)
		for _, name := range []string{"v1-easylist.txt", "v1-engine.snap"} {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		manifest, err := os.ReadFile(filepath.Join(dir, manifestFile))
		if err != nil {
			t.Fatal(err)
		}
		before := svc.Snapshot()
		if _, err := svc.Rollback(context.Background()); err == nil {
			t.Fatal("rollback to a generation with no files succeeded")
		}
		if svc.Snapshot() != before || before.Version != 2 {
			t.Fatalf("failed rollback changed the serving snapshot (v%d)", svc.Snapshot().Version)
		}
		after, err := os.ReadFile(filepath.Join(dir, manifestFile))
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(manifest) {
			t.Fatal("failed rollback rewrote the manifest")
		}
		if !serves(t, svc, "gen2") {
			t.Fatal("generation 2 no longer serving")
		}
	})
}

// TestAtomicWriteRemovesTemp: a write that fails part-way leaves neither
// the temp file nor the target behind. The temp name is a symlink to
// /dev/full, so the write itself fails whatever the user's permissions.
func TestAtomicWriteRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v1-engine.snap")
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Skipf("cannot link to /dev/full: %v", err)
	}
	if err := atomicWrite(path, []byte("payload")); err == nil {
		t.Fatal("write through /dev/full succeeded")
	}
	if _, err := os.Lstat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
	if _, err := os.Lstat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed write created its target: %v", err)
	}
}
