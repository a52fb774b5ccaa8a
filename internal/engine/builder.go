package engine

import (
	"fmt"

	"acceptableads/internal/filter"
)

// Builder accumulates filter lists and produces a frozen *Engine. The
// compiled indexes of a built engine are immutable, so any number of
// goroutines may match against it while a new engine is being built for
// the next list revision — the construction discipline behind the decision
// service's snapshot swaps: build, freeze, publish via an atomic pointer,
// let in-flight queries finish on the old snapshot.
//
// Pattern and selector compilation inside each Add fans out across
// GOMAXPROCS workers (see SetWorkers); insertion is sequential, so the
// built engine is identical regardless of worker count. A Builder is
// single-threaded; Build hands the engine off and the Builder must not be
// reused.
type Builder struct {
	e       *Engine
	workers int
}

// NewBuilder creates an empty engine builder.
func NewBuilder() *Builder {
	return &Builder{e: &Engine{
		index:      &unifiedIndex{},
		elemHide:   newElemHideIndex(),
		listCounts: make(map[string]int),
		views:      make(map[string]*View),
	}}
}

// SetWorkers caps the compile worker count for subsequent Add calls.
// n <= 0 restores the default (GOMAXPROCS); n == 1 forces serial
// compilation — the baseline BenchmarkEngineBuildSerial measures.
func (b *Builder) SetWorkers(n int) *Builder {
	b.workers = n
	return b
}

// DisableFingerprints builds the engine without the packed pattern
// fingerprints, leaving that gate permanently open — the ablation switch
// behind BenchmarkAblationFingerprintOff. Call before any Add.
func (b *Builder) DisableFingerprints() *Builder {
	if b.e != nil {
		b.e.noFingerprint = true
	}
	return b
}

// DisableHostIndex builds the engine without the reversed-domain host
// index: '||'-anchored host filters stay in the keyword buckets — the
// ablation switch behind BenchmarkAblationDomainTrieOff. Call before any
// Add.
func (b *Builder) DisableHostIndex() *Builder {
	if b.e != nil {
		b.e.noHostIndex = true
	}
	return b
}

// Add compiles and indexes every active filter of l under the given list
// name. Calling Add after Build returns an error.
func (b *Builder) Add(name string, l *filter.List) error {
	if b.e == nil {
		return fmt.Errorf("engine: builder already built")
	}
	return b.e.addList(name, l, b.workers)
}

// Profile registers a named profile — a subset of the lists added so
// far — on the engine under construction. The built engine serves every
// profile from the one compiled filter universe via Engine.View; no
// per-profile recompile happens. Lists must already have been Added, so
// declare profiles after the Add calls. The "full" profile (every list)
// is registered implicitly by Build unless defined here explicitly.
func (b *Builder) Profile(name string, lists ...string) error {
	if b.e == nil {
		return fmt.Errorf("engine: builder already built")
	}
	return b.e.addProfile(name, lists...)
}

// Build freezes and returns the engine. The Builder is spent afterwards:
// further Add calls fail, which is what keeps the published engine
// immutable under concurrent readers. Build guarantees the
// DefaultProfile ("full") exists, spanning every added list.
func (b *Builder) Build() *Engine {
	e := b.e
	b.e = nil
	e.index.freeze()
	e.seal()
	return e
}
