package engine

import (
	"sort"
	"strings"
	"testing"

	"acceptableads/internal/filter"
	"acceptableads/internal/obs"
)

// requestMatcher is what the policy test drives: a recording matcher over
// an engine's full profile.
type requestMatcher interface {
	MatchRequest(req *Request, opts ...MatchOption) Decision
}

// TestMatchModePolicy pins every side effect of the four evaluation modes
// — instrumented, short-circuit and the +linear variant of each — on one
// request per outcome shape: the verdict, the winning filter of each side,
// the DNT signal, which attribution slot moves, what the recorder sees,
// whether engine.match.attempts counts the call, and which candidate roles
// an explained match reports. The last one is what shows linear
// short-circuit skipping the exception scan when nothing blocks, while
// indexed short-circuit still resolves both roles in one pass.
func TestMatchModePolicy(t *testing.T) {
	e := mustEngine(t,
		listOf("easylist", "||blockonly.example^\n||both.example^\n||dnt.example^$donottrack"),
		listOf("exceptionrules", "@@||exconly.example^\n@@||both.example^"),
	)
	reg := obs.NewRegistry()
	e.SetMetrics(reg)
	attempts := reg.Counter("engine.match.attempts")
	var acts []Activation
	m := recordingMatcher(e, RecorderFunc(func(a Activation) { acts = append(acts, a) }))

	// want is one mode's outcome for one request. hit and act name the
	// filter whose attribution slot moves by one and the filter the
	// recorder sees ("" for none); roles is the sorted, deduplicated set of
	// candidate roles an explained match reports.
	type want struct {
		verdict          Verdict
		blocked, allowed string
		dnt              bool
		hit, act         string
		attempts         int64
		roles            string
	}
	const (
		blk  = "||blockonly.example^"
		both = "||both.example^"
		dnt  = "||dnt.example^$donottrack"
		exc  = "@@||exconly.example^"
		bexc = "@@||both.example^"
	)
	modes := []struct {
		name string
		opts []MatchOption
	}{
		{"instrumented", nil},
		{"short-circuit", []MatchOption{WithShortCircuit()}},
		{"instrumented+linear", []MatchOption{WithLinearScan()}},
		{"short-circuit+linear", []MatchOption{WithShortCircuit(), WithLinearScan()}},
	}
	cases := []struct {
		name, url string
		want      [4]want // indexed like modes
	}{
		{"no match", "http://plain.example/a.js", [4]want{
			{verdict: NoMatch, attempts: 1},
			{verdict: NoMatch},
			{verdict: NoMatch, roles: "block,exception"},
			{verdict: NoMatch, roles: "block"},
		}},
		{"block only", "http://blockonly.example/a.js", [4]want{
			{verdict: Blocked, blocked: blk, hit: blk, act: blk, attempts: 1, roles: "block"},
			{verdict: Blocked, blocked: blk, hit: blk, roles: "block"},
			{verdict: Blocked, blocked: blk, roles: "block,exception"},
			{verdict: Blocked, blocked: blk, roles: "block,exception"},
		}},
		{"exception only", "http://exconly.example/a.js", [4]want{
			{verdict: Allowed, allowed: exc, hit: exc, act: exc, attempts: 1, roles: "exception"},
			{verdict: NoMatch, roles: "exception"},
			{verdict: Allowed, allowed: exc, roles: "block,exception"},
			{verdict: NoMatch, roles: "block"},
		}},
		{"block+exception", "http://both.example/a.js", [4]want{
			{verdict: Allowed, blocked: both, allowed: bexc, hit: bexc, act: bexc, attempts: 1, roles: "block,exception"},
			{verdict: Allowed, blocked: both, allowed: bexc, hit: bexc, roles: "block,exception"},
			{verdict: Allowed, blocked: both, allowed: bexc, roles: "block,exception"},
			{verdict: Allowed, blocked: both, allowed: bexc, roles: "block,exception"},
		}},
		{"dnt filter", "http://dnt.example/a.js", [4]want{
			{verdict: NoMatch, dnt: true, hit: dnt, attempts: 1, roles: "dnt"},
			{verdict: NoMatch},
			{verdict: NoMatch, roles: "block,exception"},
			{verdict: NoMatch, roles: "block"},
		}},
	}
	hitsOf := func() map[string]int64 {
		out := make(map[string]int64)
		for _, st := range e.FilterStats() {
			out[st.Filter] = st.Hits
		}
		return out
	}
	rawOf := func(m *Match) string {
		if m == nil {
			return ""
		}
		return m.Filter.Raw
	}
	for _, c := range cases {
		for i, mode := range modes {
			w := c.want[i]
			req := &Request{URL: c.url, Type: filter.TypeScript, DocumentHost: "page.example"}
			acts = acts[:0]
			before, att := hitsOf(), attempts.Value()
			d := m.MatchRequest(req, mode.opts...)
			after := hitsOf()

			if d.Verdict != w.verdict || d.DoNotTrack != w.dnt {
				t.Errorf("%s/%s: verdict %v dnt %v, want %v dnt %v", c.name, mode.name, d.Verdict, d.DoNotTrack, w.verdict, w.dnt)
			}
			if got := rawOf(d.BlockedBy()); got != w.blocked {
				t.Errorf("%s/%s: BlockedBy %q, want %q", c.name, mode.name, got, w.blocked)
			}
			if got := rawOf(d.AllowedBy()); got != w.allowed {
				t.Errorf("%s/%s: AllowedBy %q, want %q", c.name, mode.name, got, w.allowed)
			}
			for raw, n := range after {
				wantDelta := int64(0)
				if raw == w.hit {
					wantDelta = 1
				}
				if delta := n - before[raw]; delta != wantDelta {
					t.Errorf("%s/%s: %s hits moved by %d, want %d", c.name, mode.name, raw, delta, wantDelta)
				}
			}
			var gotActs []string
			for _, a := range acts {
				gotActs = append(gotActs, a.Filter.Raw)
				if a.Kind != ActRequest || a.URL != c.url || a.PageHost != "page.example" {
					t.Errorf("%s/%s: activation %+v", c.name, mode.name, a)
				}
			}
			if wantActs := strings.Fields(w.act); strings.Join(gotActs, " ") != strings.Join(wantActs, " ") {
				t.Errorf("%s/%s: recorded %q, want %q", c.name, mode.name, gotActs, wantActs)
			}
			if delta := attempts.Value() - att; delta != w.attempts {
				t.Errorf("%s/%s: engine.match.attempts moved by %d, want %d", c.name, mode.name, delta, w.attempts)
			}

			var tr Trail
			acts = acts[:0]
			dx := m.MatchRequest(req, append(mode.opts[:len(mode.opts):len(mode.opts)], WithExplain(&tr))...)
			if dx.Verdict != d.Verdict || tr.Verdict != d.Verdict.String() {
				t.Errorf("%s/%s: explained verdict %v (trail %q), plain %v", c.name, mode.name, dx.Verdict, tr.Verdict, d.Verdict)
			}
			if tr.Mode != mode.name {
				t.Errorf("%s/%s: Trail.Mode %q", c.name, mode.name, tr.Mode)
			}
			seen := make(map[string]bool)
			var roles []string
			for _, cand := range tr.Candidates {
				if !seen[cand.Role] {
					seen[cand.Role] = true
					roles = append(roles, cand.Role)
				}
			}
			sort.Strings(roles)
			if got := strings.Join(roles, ","); got != w.roles {
				t.Errorf("%s/%s: candidate roles %q, want %q", c.name, mode.name, got, w.roles)
			}
		}
	}
}
