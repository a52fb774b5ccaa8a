package engine

// Poison-pill containment. A filter whose evaluation panics (an
// adversarial regex, a compiler bug surfaced by hostile input — "Block
// the blocker"-style sites actively probe for these) must not crash-loop
// the serving process. Every compiled request filter carries an atomic
// containment state checked at the top of its candidate gate; the serving
// layer catches the panic, calls QuarantinePanicking to find and disable
// the culprit, and retries the match without it.
//
// States are monotone in practice: filters start filterOK and move to
// filterQuarantined (dead: matches reports false) when caught panicking.
// filterPoison is the chaos hook — a poisoned filter panics inside
// matches, standing in for a genuinely faulty filter in tests and fault
// drills.

const (
	filterOK          uint32 = 0
	filterQuarantined uint32 = 1
	filterPoison      uint32 = 2
)

// PoisonFilter arms every request filter whose raw text equals raw to
// panic when evaluated — the fault-injection hook behind the panic
// containment tests and chaos drills. It returns how many filters were
// armed. Only healthy (not already quarantined) filters are poisoned.
func (e *Engine) PoisonFilter(raw string) int {
	n := 0
	for r := role(0); r < numRoles; r++ {
		for _, c := range e.index.all[r] {
			if c.f.Raw == raw && c.state.CompareAndSwap(filterOK, filterPoison) {
				n++
			}
		}
	}
	return n
}

// QuarantinePanicking probes every request filter of the engine against
// req in isolation and quarantines each one whose evaluation panics,
// returning their identities. Call it after MatchRequest panicked for
// req: the panicking candidate is found by replaying the same gates one
// filter at a time under recover, then atomically disabled on every
// evaluation path (index bucket, slow list, linear scan share the same
// *compiledRequest). Concurrent matchers may still observe one panic in
// flight, but every evaluation after the store sees the filter as dead.
//
// An empty result means no currently-loaded request filter panics on req
// — either the culprit was already quarantined by a concurrent call, or
// the panic came from outside filter evaluation.
func (e *Engine) QuarantinePanicking(req *Request) []FilterStat {
	ix := req.index(e.metrics)
	var out []FilterStat
	for r := role(0); r < numRoles; r++ {
		for _, c := range e.index.all[r] {
			if c.state.Load() == filterQuarantined {
				continue
			}
			if !panicsOn(c, req, ix) {
				continue
			}
			// Disable from whichever armed state we saw; losing the CAS
			// race to a concurrent quarantiner is fine — the filter is
			// dead either way, and only the winner reports it.
			if c.state.CompareAndSwap(filterOK, filterQuarantined) ||
				c.state.CompareAndSwap(filterPoison, filterQuarantined) {
				e.quarCount.Add(1)
				out = append(out, FilterStat{
					Filter: c.f.Raw,
					List:   e.listOf(c.listBit),
					Line:   int(c.line),
					Hits:   e.hits[c.id].Load(),
				})
			}
		}
	}
	return out
}

// panicsOn reports whether evaluating c against req panics.
func panicsOn(c *compiledRequest, req *Request, ix *indexSide) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	c.matches(req, ix)
	return false
}

// Quarantined returns the identity of every quarantined request filter,
// in load order.
func (e *Engine) Quarantined() []FilterStat {
	var out []FilterStat
	for r := role(0); r < numRoles; r++ {
		for _, c := range e.index.all[r] {
			if c.state.Load() == filterQuarantined {
				out = append(out, FilterStat{
					Filter: c.f.Raw,
					List:   e.listOf(c.listBit),
					Line:   int(c.line),
					Hits:   e.hits[c.id].Load(),
				})
			}
		}
	}
	return out
}

// QuarantinedCount returns how many request filters have been quarantined
// on this engine.
func (e *Engine) QuarantinedCount() int64 { return e.quarCount.Load() }
