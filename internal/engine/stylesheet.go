package engine

import (
	"sort"
	"strings"
)

// ElemHideCSS builds the user stylesheet Adblock Plus would inject for a
// page on docHost: every applicable hiding selector, minus those cancelled
// by an element exception on that domain, rendered as
// "selector, selector { display: none !important; }" groups.
//
// This is how element hiding actually ships in the extension — filters
// become one big stylesheet, not per-node DOM surgery — and it is the
// engine API a browser-integration consumer would use.
func (e *Engine) ElemHideCSS(docHost string) string {
	return e.views[DefaultProfile].ElemHideCSS(docHost)
}

// ElemHideCSS builds the injectable stylesheet under the view's profile.
func (v *View) ElemHideCSS(docHost string) string {
	var selectors []string
	for _, c := range v.e.elemHide.all {
		if c.listBit&v.mask == 0 {
			continue
		}
		if !c.f.AppliesToDomain(docHost) {
			continue
		}
		if v.e.findElemException(c.f.Selector, docHost, v.mask) != nil {
			continue
		}
		selectors = append(selectors, c.f.Selector)
	}
	if len(selectors) == 0 {
		return ""
	}
	sort.Strings(selectors)
	selectors = dedupeSorted(selectors)

	// Group selectors to keep rule counts low, as the extension does.
	const perRule = 100
	var b strings.Builder
	for i := 0; i < len(selectors); i += perRule {
		j := i + perRule
		if j > len(selectors) {
			j = len(selectors)
		}
		b.WriteString(strings.Join(selectors[i:j], ", "))
		b.WriteString(" { display: none !important; }\n")
	}
	return b.String()
}

func dedupeSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || s[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}
