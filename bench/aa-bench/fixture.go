package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"acceptableads/internal/adnet"
	"acceptableads/internal/alexa"
	"acceptableads/internal/easylist"
	"acceptableads/internal/filter"
	"acceptableads/internal/histgen"
	"acceptableads/internal/webgen"
	"acceptableads/internal/xrand"
)

// fixtureSeed fixes the filter lists and the synthetic web: they are the
// repository's bench fixture (bench_test.go uses the same seed), and only
// the traffic drawn over them varies with -seed.
const fixtureSeed = 42

// List names as aa-serve's -easylist/-whitelist flags register them.
const (
	listEasy  = "easylist"
	listWhite = "exceptionrules"
)

// variant names one of the two EasyList texts reload_churn and the
// lifecycle tail alternate between.
type variant int

const (
	variantA variant = iota
	variantB
	numVariants
)

// churnBlockedHost is a benign CDN host of the corpus that variant B
// blocks, and churnDropped names ad services whose blocking filter
// variant B drops: tuples whose verdict differs between the versions are
// what lets the oracle see a reply served from the wrong snapshot.
const churnBlockedHost = "cdn.pagekit-static.net"

var churnDropped = []string{"||adzerk.net^$third-party", "||servedby.net^$third-party"}

// fixture is everything a run needs that does not depend on -seed.
type fixture struct {
	easy     [numVariants]string // EasyList text per variant
	white    string              // exceptionrules text
	universe *alexa.Universe
	web      *webgen.Corpus
}

// benchFixture builds the full-size fixture: EasyList at its default
// 25,000 filters and the final revision of the generated whitelist.
func benchFixture() (*fixture, error) {
	h, err := histgen.Generate(histgen.Config{Seed: fixtureSeed})
	if err != nil {
		return nil, fmt.Errorf("whitelist history: %w", err)
	}
	return newFixture(easylist.DefaultSize, h.Repo.Tip().Content, h.Universe), nil
}

// smallFixture is a few hundred filters over the same web, for tests.
func smallFixture() *fixture {
	var wl strings.Builder
	wl.WriteString("[Adblock Plus 2.0]\n")
	for _, n := range adnet.Whitelisted() {
		wl.WriteString(n.WhitelistFilter)
		wl.WriteByte('\n')
	}
	return newFixture(200, wl.String(), alexa.NewUniverse(fixtureSeed, 1_000_000))
}

func newFixture(easySize int, white string, u *alexa.Universe) *fixture {
	f := &fixture{white: white, universe: u}
	f.easy[variantA] = easylist.Generate(fixtureSeed, easySize).String()
	f.easy[variantB] = churnVariant(f.easy[variantA])
	f.web = webgen.New(fixtureSeed, u, filter.ParseListString(listWhite, white))
	return f
}

// churnVariant derives variant B from variant A: about 1% of the request
// filters are replaced by fresh ones of the same shapes, the churnDropped
// filters go, and churnBlockedHost gets blocked. The filter count stays
// the same, so a reload between the two costs what a routine list update
// costs.
func churnVariant(a string) string {
	rng := xrand.New(fixtureSeed ^ 0xc4a2)
	dropped := make(map[string]bool, len(churnDropped))
	for _, d := range churnDropped {
		dropped[d] = true
	}
	// Filters of the synthetic web's ad services stay in both variants
	// (churnDropped apart), so the blocked and allowed shares of the
	// traffic do not depend on the version.
	adnetFilter := make(map[string]bool)
	for _, n := range adnet.Networks() {
		adnetFilter[n.EasyListFilter] = true
	}
	lines := strings.Split(strings.TrimSuffix(a, "\n"), "\n")
	injected := false
	for i, line := range lines {
		request := strings.HasPrefix(line, "||") || strings.HasPrefix(line, "/")
		switch {
		case dropped[line]:
			lines[i] = fmt.Sprintf("||churn-dropped%d.com^$third-party", i)
		case !request || adnetFilter[line]:
			// Header, comments, element hiding rules and ad services stay.
		case !injected:
			lines[i] = "||" + churnBlockedHost + "^$third-party"
			injected = true
		case rng.Intn(100) == 0:
			if rng.Intn(2) == 0 {
				lines[i] = fmt.Sprintf("||churn-net%d.com^$third-party", i)
			} else {
				lines[i] = fmt.Sprintf("/churn-%d/", i)
			}
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// listFiles are the two files the child reads on every reload.
type listFiles struct{ easy, white string }

// writeLists writes variant A and the whitelist into dir.
func (f *fixture) writeLists(dir string) (listFiles, error) {
	lf := listFiles{
		easy:  filepath.Join(dir, "easylist.txt"),
		white: filepath.Join(dir, "exceptionrules.txt"),
	}
	if err := os.WriteFile(lf.white, []byte(f.white), 0o644); err != nil {
		return lf, err
	}
	return lf, f.pushVariant(lf, variantA)
}

// pushVariant replaces the EasyList file with variant v, by rename so a
// concurrent reload never reads a torn file.
func (f *fixture) pushVariant(lf listFiles, v variant) error {
	tmp := lf.easy + ".tmp"
	if err := os.WriteFile(tmp, []byte(f.easy[v]), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, lf.easy)
}
