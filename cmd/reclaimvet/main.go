// Command reclaimvet is the repository's static-analysis gate: a
// multichecker running the four reclamation-contract analyzers (handlepair,
// singlewriter, protectorder, exporteddoc) over the named
// packages. It exits non-zero on any diagnostic, so CI wires it as a
// hard gate (`make vet-reclaim`); deliberate exceptions are annotated in the
// source with reasoned `//lint:allow <analyzer> <reason>` markers, which the
// driver checks (a bare marker, an unknown analyzer name, or a marker that
// suppresses nothing are themselves diagnostics).
//
//	reclaimvet [-run list] [packages]
//
// With no package arguments it analyzes ./.... The -run flag restricts the
// suite to a comma-separated subset of analyzer names (debugging aid; the CI
// gate always runs everything).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: reclaimvet [-run analyzer,...] [packages]\n\nanalyzers:\n")
		for _, a := range suite.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := suite.All()
	if *runFlag != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*runFlag, ",") {
			name = strings.TrimSpace(name)
			if !suite.Known(name) {
				fmt.Fprintf(os.Stderr, "reclaimvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			want[name] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
			}
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	units, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reclaimvet:", err)
		os.Exit(2)
	}

	bad := 0
	for _, u := range units {
		diags, err := analysis.RunUnit(u, analyzers, suite.Known)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reclaimvet:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Printf("%s: %s: %s\n", u.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		bad += len(diags)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "reclaimvet: %d contract violation(s)\n", bad)
		os.Exit(1)
	}
}
