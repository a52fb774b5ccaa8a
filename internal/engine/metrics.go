package engine

import (
	"acceptableads/internal/obs"
)

// engineMetrics holds the engine's pre-resolved telemetry instruments, so
// the hot path never touches a registry map. A nil *engineMetrics (the
// default) disables instrumentation entirely: the only cost left on the
// match path is one pointer test.
type engineMetrics struct {
	// attempts counts MatchRequest calls; the verdict counters partition
	// them (Snyder et al.'s "Who Filters the Filters" reports exactly
	// these per-engine totals).
	attempts *obs.Counter
	noMatch  *obs.Counter
	blocked  *obs.Counter
	allowed  *obs.Counter
	// latency is the per-match wall-time distribution — the paper-adjacent
	// overhead headline (Garimella et al. make matching overhead a
	// first-class result).
	latency *obs.Histogram
	// derivations counts index-side derivations of requests evaluated on
	// this engine: one per request that reaches the index, none for a
	// request the decision cache answered — so against the cache's miss
	// counter it shows the work the two-phase Request avoids, and a
	// change that derives eagerly again shows up as derivations ≈ requests.
	derivations *obs.Counter
	// activations counts recorded filter firings per source list
	// ("engine.activations.easylist", ...).
	activations map[string]*obs.Counter
}

// SetMetrics wires the engine's hot-path telemetry into reg; nil reg
// disables it. Call it before matching starts (it is not synchronized
// against concurrent matches) and after every list has been added, so the
// per-list activation counters cover all loaded lists.
func (e *Engine) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		e.metrics = nil
		return
	}
	m := &engineMetrics{
		attempts:    reg.Counter("engine.match.attempts"),
		noMatch:     reg.Counter("engine.match.nomatch"),
		blocked:     reg.Counter("engine.match.blocked"),
		allowed:     reg.Counter("engine.match.allowed"),
		latency:     reg.Histogram("engine.match.latency"),
		derivations: reg.Counter("engine.request.derivations"),
		activations: make(map[string]*obs.Counter, len(e.lists)),
	}
	for _, name := range e.lists {
		m.activations[name] = reg.Counter("engine.activations." + name)
	}
	e.metrics = m
}

// verdict bumps the verdict partition counter.
func (m *engineMetrics) verdict(v Verdict) {
	switch v {
	case Blocked:
		m.blocked.Inc()
	case Allowed:
		m.allowed.Inc()
	default:
		m.noMatch.Inc()
	}
}
