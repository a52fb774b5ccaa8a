package main

import (
	"fmt"
	"sync"

	"acceptableads/internal/decision/api"
	"acceptableads/internal/engine"
	"acceptableads/internal/filter"
	"acceptableads/internal/xrand"
)

// verdict is what a reply must say about one tuple: the outcome and the
// text of the winning filter on either side.
type verdict struct{ verdict, blockedBy, allowedBy string }

func verdictOf(d engine.Decision) verdict {
	v := verdict{verdict: d.Verdict.String()}
	if m := d.BlockedBy(); m != nil {
		v.blockedBy = m.Filter.Raw
	}
	if m := d.AllowedBy(); m != nil {
		v.allowedBy = m.Filter.Raw
	}
	return v
}

func verdictOfReply(r *api.MatchResponse) verdict {
	v := verdict{verdict: r.Verdict}
	if r.BlockedBy != nil {
		v.blockedBy = r.BlockedBy.Filter
	}
	if r.AllowedBy != nil {
		v.allowedBy = r.AllowedBy.Filter
	}
	return v
}

// sample is one tuple the oracle decided, under every list variant and
// profile the workload can be answered from.
type sample struct {
	t    tuple
	want [numVariants][2]verdict // [variant][0 full profile, 1 profileEasy]
}

// oracle decides tuples on engines built in-process from the same list
// text the child serves, with the index bypassed: a linear scan over
// every filter shares no code with the candidate pruning under test.
type oracle struct {
	views [numVariants][2]*engine.View
}

// build compiles parsed lists the way the service does: both lists, the
// easylist profile, then the freeze.
func build(easy, white *filter.List) (*engine.Engine, error) {
	b := engine.NewBuilder()
	if err := b.Add(listEasy, easy); err != nil {
		return nil, err
	}
	if err := b.Add(listWhite, white); err != nil {
		return nil, err
	}
	if err := b.Profile(profileEasy, listEasy); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

func newOracle(fix *fixture) (*oracle, error) {
	o := &oracle{}
	for v := variantA; v < numVariants; v++ {
		eng, err := build(filter.ParseListString(listEasy, fix.easy[v]), filter.ParseListString(listWhite, fix.white))
		if err != nil {
			return nil, fmt.Errorf("oracle engine: %w", err)
		}
		for p, name := range []string{engine.DefaultProfile, profileEasy} {
			if o.views[v][p], err = eng.View(name); err != nil {
				return nil, fmt.Errorf("oracle engine: %w", err)
			}
		}
	}
	return o, nil
}

// prepare is the conversion the service applies to a wire request.
func prepare(q api.MatchRequest) (*engine.Request, error) {
	typ := filter.TypeOther
	if q.Type != "" {
		t, ok := filter.ParseContentType(q.Type)
		if !ok {
			return nil, fmt.Errorf("unknown content type %q", q.Type)
		}
		typ = t
	}
	return engine.NewRequest(q.URL, q.Document, typ)
}

// decide fills s.want for both list variants — every workload meets both
// in its lifecycle tail — under the full profile and, if easy is set,
// under profileEasy.
func (o *oracle) decide(s *sample, easy bool) error {
	req, err := prepare(s.t.wire())
	if err != nil {
		return err
	}
	for v := variantA; v < numVariants; v++ {
		s.want[v][0] = verdictOf(o.views[v][0].MatchRequest(req, engine.WithLinearScan()))
		if easy {
			s.want[v][1] = verdictOf(o.views[v][1].MatchRequest(req, engine.WithLinearScan()))
		}
	}
	return nil
}

// decideAll runs the oracle over samples on every core; a linear scan of
// the full lists is about a millisecond per tuple.
func (o *oracle) decideAll(samples []sample, easy bool, workers int) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(samples); i += workers {
				if err := o.decide(&samples[i], easy); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chooseSamples picks the tuples the oracle will check and wires them
// into the workload's expectations, without deciding them yet. The
// stable-URL workloads sample their universe by popularity, so sampled
// tuples are met many times during a run; page_cold, whose URLs are
// unique to a visit, samples the first visits of each connection.
func (w *workload) chooseSamples() error {
	var got [numClasses]int
	add := func(t tuple) int32 {
		got[t.class]++
		w.samples = append(w.samples, sample{t: t})
		return int32(len(w.samples) - 1)
	}
	// A universe scaled down for a test may hold fewer tuples than the
	// sample wants; then all of them are taken.
	wantTuples, wantEmbeds := sampleTuples, sampleEmbeds
	if w.tuples != nil {
		distinct, embeds := make(map[tuple]bool), 0
		for _, t := range w.tuples {
			if !distinct[t] && t.class == classEmbed {
				embeds++
			}
			distinct[t] = true
		}
		wantTuples, wantEmbeds = min(wantTuples, len(distinct)), min(wantEmbeds, embeds)
	}
	enough := func() bool {
		for _, n := range got {
			if n == 0 {
				return false
			}
		}
		return len(w.samples) >= wantTuples && got[classEmbed] >= wantEmbeds
	}

	if w.name == wlPageCold {
		streams := make([]*stream, w.conns)
		for c := range streams {
			streams[c] = w.stream(c)
		}
		seen := make(map[string]int32) // repeats of an embed share a sample
		for visits := 0; !enough(); visits++ {
			if visits >= 64*w.conns {
				return fmt.Errorf("oracle sample: %d visits gave %d tuples, classes %v", visits, len(w.samples), got)
			}
			for c, s := range streams {
				visit := s.next()
				exp := make([]int32, len(visit.base))
				for i, q := range visit.batch.Requests {
					si, ok := seen[q.URL]
					if !ok {
						si = add(tuple{url: q.URL, doc: q.Document, typ: q.Type, class: visit.base[i].class})
						seen[q.URL] = si
					}
					exp[i] = si
				}
				w.coldExpect[c] = append(w.coldExpect[c], exp)
			}
		}
		return nil
	}

	rng := xrand.New(xrand.Hash64(w.seed, w.name+"/sample"))
	chosen := make(map[tuple]int32)
	for draws := 0; !enough(); draws++ {
		if draws >= 64*sampleTuples {
			return fmt.Errorf("oracle sample: %d draws gave %d tuples, classes %v", draws, len(w.samples), got)
		}
		idx := w.zipf.draw(rng.Float64())
		if w.batches != nil { // the draw was a page: take one of its tuples
			idx = w.pageStart[idx] + rng.Intn(w.pageStart[idx+1]-w.pageStart[idx])
		}
		t := w.tuples[idx]
		if _, dup := chosen[t]; dup {
			continue
		}
		// Once there are enough tuples, only the missing kind is taken.
		if len(w.samples) >= wantTuples && t.class != classEmbed {
			continue
		}
		chosen[t] = add(t)
	}
	// A page lists an embed once per repeat; all repeats share the sample.
	for i, t := range w.tuples {
		if si, ok := chosen[t]; ok {
			w.expect[i] = si
		}
	}
	return nil
}
