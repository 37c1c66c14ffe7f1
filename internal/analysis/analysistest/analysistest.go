// Package analysistest runs an analyzer over golden packages and checks its
// diagnostics against `// want "regexp"` expectations embedded in the golden
// sources — the same contract as golang.org/x/tools' analysistest, rebuilt
// on the in-repo loader. The golden packages live in a standalone module
// (internal/analysis/testdata, module vettest) whose package paths mirror
// the real repository's (vettest/internal/core, vettest/internal/ds/...),
// so the analyzers' path-suffix package matching sees them exactly as it
// sees the real stack while the deliberate contract violations they seed
// stay out of the main build (`./...` never descends into testdata).
//
// Expectation syntax: a comment containing `want "rx"` (one or more quoted
// regular expressions) on the line a diagnostic is reported at. Every
// diagnostic must match a want on its line and every want must be matched by
// a diagnostic; mismatches in either direction fail the test. The //lint:allow
// machinery runs exactly as under cmd/reclaimvet, so golden packages also
// exercise suppression and marker hygiene (stale or bare markers produce
// diagnostics that can themselves be `want`ed).
package analysistest

import (
	"regexp"
	"strconv"
	"testing"

	"repro/internal/analysis"
)

// wantRx extracts quoted expectations from a `want` comment; patterns may be
// double-quoted or backquoted (raw), as in x/tools analysistest.
var wantRx = regexp.MustCompile(`(?://|/\*)\s*want((?:\s+(?:"(?:[^"\\]|\\.)*"|` + "`[^`]*`" + `))+)`)

// quotedRx splits the individual quoted patterns of a want comment.
var quotedRx = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

// Run loads the golden packages matching patterns (resolved inside dir, the
// testdata module) and checks a's diagnostics against their `want`
// expectations.
func Run(t *testing.T, dir string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	units, err := analysis.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading golden packages: %v", err)
	}
	// Marker-name validation knows only the analyzer under test, so golden
	// packages can seed deliberate unknown-analyzer markers and `want` the
	// resulting hygiene diagnostic.
	known := func(name string) bool { return name == a.Name }
	for _, u := range units {
		diags, err := analysis.RunUnit(u, []*analysis.Analyzer{a}, known)
		if err != nil {
			t.Fatalf("%s: %v", u.PkgPath, err)
		}
		checkUnit(t, u, diags)
	}
}

// wantKey identifies one source line.
type wantKey struct {
	file string
	line int
}

// want is one unmatched expectation.
type want struct {
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// checkUnit diffs a unit's diagnostics against its want comments.
func checkUnit(t *testing.T, u *analysis.Unit, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[wantKey][]*want{}
	for f := range u.ReportFiles {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				key := wantKey{pos.Filename, pos.Line}
				for _, q := range quotedRx.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Errorf("%s: bad want pattern %s: %v", pos, q, err)
						continue
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
						continue
					}
					wants[key] = append(wants[key], &want{rx: rx, raw: pat})
				}
			}
		}
	}

	for _, d := range diags {
		pos := u.Fset.Position(d.Pos)
		key := wantKey{pos.Filename, pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched want %q", key.file, key.line, w.raw)
			}
		}
	}
}

// Dir returns the conventional testdata module location for an analyzer
// test living at internal/analysis/passes/<name>: three levels up.
func Dir() string { return "../../testdata" }
