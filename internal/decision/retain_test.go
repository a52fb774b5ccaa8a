//go:build go1.24

// Package weak arrived in Go 1.24, after the go line in go.mod; the build
// constraint lets this file use it. A finalizer would not do: an engine
// and its views form a cycle, and Go never frees a cycle that carries a
// finalizer.

package decision

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"acceptableads/internal/engine"
)

// TestReloadRetainsOneEngine: with a state dir the rollback ring holds
// generations as files, so after reloads only the serving engine is
// reachable; a rollback loads its target back from disk.
func TestReloadRetainsOneEngine(t *testing.T) {
	svc, err := New(context.Background(), Config{
		Source: Lists(testLists()...), StateDir: t.TempDir(), CacheSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	var engines []weak.Pointer[engine.Engine]
	for i := 0; ; i++ {
		engines = append(engines, weak.Make(svc.Snapshot().Engine))
		svc.MatchProfile(mustRequest(t, "http://ads.example.com/x.js", "http://news.example.org/"), "")
		if i == 6 {
			break
		}
		if _, err := svc.Reload(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	for i, e := range engines {
		if live, serving := e.Value() != nil, i == len(engines)-1; live != serving {
			t.Errorf("engine of v%d: reachable=%t, want %t", i+1, live, serving)
		}
	}
	runtime.KeepAlive(svc)
}
