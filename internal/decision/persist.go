package decision

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"acceptableads/internal/engine"
	"acceptableads/internal/engine/snapbin"
	"acceptableads/internal/filter"
)

// Warm-start persistence. The state directory holds the rollback ring:
// each generation is the raw list payloads it was built from plus a
// binary snapshot of its compiled engine, and one manifest lists the
// ring and what is serving. Every file is written to a temp name, synced
// and atomically renamed; the directory is synced after a generation's
// renames and again after the manifest's, so a crash never leaves a
// manifest naming a file that is not complete. A restarting service decodes the serving
// generation's binary snapshot and serves it immediately, before its
// first (possibly slow or failing) network fetch; the raw lists stay on
// disk as the fallback when the snapshot format has moved on or the
// payload fails its checksum. The on-disk layout is one manifest.json
// plus, per generation, one v<version>-<name>.txt per list and one
// v<version>-engine.snap; files of generations that left the ring are
// garbage-collected after each manifest write.

// manifestFile is the warm-start metadata file name inside StateDir.
const manifestFile = "manifest.json"

// persistManifest is the state dir's table of contents. Its top level
// describes what is serving: the version and rollback provenance the
// next warm start resumes, and the files of the generation serving, the
// newest of the ring. Ring holds the older generations, oldest first.
type persistManifest struct {
	// persistGen's own version field is shadowed by Version: the serving
	// generation's version is RollbackOf when that is set, else Version.
	persistGen
	Version    uint64       `json:"version"`
	RollbackOf uint64       `json:"rollbackOf,omitempty"`
	SavedAt    time.Time    `json:"savedAt"`
	Ring       []persistGen `json:"ring,omitempty"`
}

// persistGen is one persisted generation: the version it was first
// published as and the files it was written under.
type persistGen struct {
	Version uint64        `json:"version"`
	BuiltAt time.Time     `json:"builtAt"`
	Lists   []persistList `json:"lists"`
	// Snapshot names the binary engine snapshot file, empty when only raw
	// lists were persisted. SnapshotFormat records the codec version the
	// file was written with; a decoder with a different FormatVersion
	// ignores the file and rebuilds from the raw lists instead.
	Snapshot       string `json:"snapshot,omitempty"`
	SnapshotFormat uint32 `json:"snapshotFormat,omitempty"`
	// Profiles is the profile configuration the snapshot was compiled
	// with. Profile membership is baked into the binary snapshot, so a
	// changed configuration invalidates it (the raw lists still apply).
	Profiles map[string][]string `json:"profiles,omitempty"`
}

// generation is one entry of the rollback ring: the content of one fresh
// build, named by the version it was first published as. Once persisted
// it is the files it was written under; without a state dir, or when its
// persist failed, it keeps its engine in memory instead.
type generation struct {
	persistGen
	eng *engine.Engine // nil once persisted
}

// persistList names one persisted list payload.
type persistList struct {
	Name    string `json:"name"`
	File    string `json:"file"`
	Filters int    `json:"filters"`
}

// writeGeneration writes g's raw lists and the binary snapshot of its
// engine to dir, then syncs dir, so the files are durable before any
// manifest names them. On success g becomes its files and drops its
// engine.
func writeGeneration(dir string, g *generation, lists []engine.NamedList, profiles map[string][]string) error {
	files := persistGen{Version: g.Version, BuiltAt: g.BuiltAt, Profiles: profiles,
		Snapshot: fmt.Sprintf("v%d-engine.snap", g.Version), SnapshotFormat: snapbin.FormatVersion}
	blob, err := snapbin.Encode(g.eng)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	for _, nl := range lists {
		name := fmt.Sprintf("v%d-%s.txt", g.Version, sanitizeName(nl.Name))
		if err == nil {
			err = atomicWrite(filepath.Join(dir, name), []byte(nl.List.String()))
		}
		files.Lists = append(files.Lists, persistList{Name: nl.Name, File: name, Filters: len(nl.List.Active())})
	}
	if err == nil {
		err = atomicWrite(filepath.Join(dir, files.Snapshot), blob)
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("decision: persist generation %d: %w", g.Version, err)
	}
	g.persistGen, g.eng = files, nil
	return nil
}

// loadManifest reads and sanity-checks the manifest persisted in dir. A
// missing manifest returns an error satisfying errors.Is(err,
// fs.ErrNotExist), which warm start treats as "no prior state".
func loadManifest(dir string) (*persistManifest, error) {
	body, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	var m persistManifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decision: corrupt state manifest: %w", err)
	}
	for _, g := range m.generations() {
		if len(g.Lists) == 0 {
			return nil, fmt.Errorf("decision: state manifest lists no payloads")
		}
		// The manifest names plain files inside dir; anything that could
		// escape it (or an absolute path) marks the manifest corrupt.
		for _, pl := range g.Lists {
			if pl.File == "" || pl.File != filepath.Base(pl.File) {
				return nil, fmt.Errorf("decision: state manifest references invalid file %q", pl.File)
			}
		}
		if g.Snapshot != "" && g.Snapshot != filepath.Base(g.Snapshot) {
			return nil, fmt.Errorf("decision: state manifest references invalid file %q", g.Snapshot)
		}
	}
	return &m, nil
}

// generations returns the ring m describes, oldest first; the last is
// the generation serving.
func (m *persistManifest) generations() []generation {
	ring := make([]generation, 0, len(m.Ring)+1)
	for _, g := range m.Ring {
		ring = append(ring, generation{persistGen: g})
	}
	serving := generation{persistGen: m.persistGen}
	serving.Version = cmp.Or(m.RollbackOf, m.Version)
	return append(ring, serving)
}

// persist writes the state dir for ring, whose newest generation is
// about to serve as snap: that generation's files when it is a fresh
// build (which then drops its engine), then the manifest. Persistence is
// best-effort: a failure leaves the manifest as it was and costs only the
// next warm start, never the publish.
func (s *Service) persist(snap *Snapshot, lists []engine.NamedList, ring []generation) {
	var err error
	g := &ring[len(ring)-1]
	if g.eng != nil && lists == nil {
		// A rollback to a generation whose own persist failed.
		err = fmt.Errorf("generation %d was never persisted", g.Version)
	} else if g.eng != nil {
		err = writeGeneration(s.cfg.StateDir, g, lists, s.cfg.Profiles)
	}
	m := &persistManifest{
		persistGen: g.persistGen, Version: snap.Version, RollbackOf: snap.RollbackOf, SavedAt: time.Now(),
	}
	for _, old := range ring[:len(ring)-1] {
		if old.eng == nil {
			m.Ring = append(m.Ring, old.persistGen)
		}
	}
	var body []byte
	if err == nil {
		body, err = json.MarshalIndent(m, "", "  ")
	}
	if err == nil {
		err = atomicWrite(filepath.Join(s.cfg.StateDir, manifestFile), body)
	}
	if err == nil {
		err = syncDir(s.cfg.StateDir)
	}
	if err != nil {
		s.logger.Warn("snapshot persist failed", "version", snap.Version, "err", err)
		return
	}
	gcStateDir(s.cfg.StateDir, m)
	s.persists.Inc()
}

// load rebuilds a persisted generation's engine: decoded from its binary
// snapshot when that is usable, else recompiled from its raw lists, which
// it then also returns for the canary's parse-rate check. makeCurrent
// loads through it for warm start and rollback alike.
func (s *Service) load(g *persistGen) (eng *engine.Engine, lists []engine.NamedList, binary bool, err error) {
	if eng := s.decodeBinary(g); eng != nil {
		return eng, nil, true, nil
	}
	for _, pl := range g.Lists {
		payload, err := os.ReadFile(filepath.Join(s.cfg.StateDir, pl.File))
		if err != nil {
			return nil, nil, false, fmt.Errorf("decision: state list %s: %w", pl.Name, err)
		}
		lists = append(lists, engine.NamedList{Name: pl.Name, List: filter.ParseListString(pl.Name, string(payload))})
	}
	eng, err = buildEngine(lists, s.cfg.Profiles)
	return eng, lists, false, err
}

// decodeBinary is load's fast path: decode the generation's binary
// engine snapshot. Any disqualification — no snapshot, codec version
// skew, a profile configuration that differs from the one the snapshot
// was compiled with, a read, decode or checksum failure — is logged and
// returns nil, so the caller recompiles from the raw lists instead.
func (s *Service) decodeBinary(g *persistGen) *engine.Engine {
	if g.Snapshot == "" {
		return nil
	}
	if g.SnapshotFormat != snapbin.FormatVersion {
		s.logger.Warn("binary snapshot format skew; recompiling from raw lists",
			"persisted", g.SnapshotFormat, "decoder", snapbin.FormatVersion)
		return nil
	}
	// nil and empty both mean "only the implicit full profile".
	if len(g.Profiles)+len(s.cfg.Profiles) > 0 && !reflect.DeepEqual(g.Profiles, s.cfg.Profiles) {
		s.logger.Warn("binary snapshot compiled under different profiles; recompiling from raw lists")
		return nil
	}
	buf, err := os.ReadFile(filepath.Join(s.cfg.StateDir, g.Snapshot))
	if err != nil {
		s.logger.Warn("binary snapshot unreadable; recompiling from raw lists", "err", err)
		return nil
	}
	eng, err := snapbin.Decode(buf)
	if err != nil {
		s.logger.Warn("binary snapshot rejected by decoder; recompiling from raw lists", "err", err)
		return nil
	}
	return eng
}

// atomicWrite writes data to path via a temp file in the same directory,
// synced before an atomic rename, so readers only ever observe complete
// files. The temp file is removed on every error path. Making the rename
// itself durable is the caller's syncDir.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		_, err = f.Write(data)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // best effort; err says what failed
	}
	return err
}

// syncDir makes the renames into dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// gcStateDir removes persisted files m does not reference (generations
// that left the ring, leftover temp files). Best effort.
func gcStateDir(dir string, m *persistManifest) {
	keep := map[string]bool{}
	for _, g := range m.generations() {
		for _, pl := range g.Lists {
			keep[pl.File] = true
		}
		keep[g.Snapshot] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || name == manifestFile || keep[name] {
			continue
		}
		if strings.HasPrefix(name, "v") &&
			(strings.HasSuffix(name, ".txt") || strings.HasSuffix(name, ".snap") || strings.HasSuffix(name, ".tmp")) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// sanitizeName maps a list name to a file-name-safe token.
func sanitizeName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "list"
	}
	return b.String()
}
