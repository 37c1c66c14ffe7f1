// Package allow exercises the //lint:allow escape hatch and its hygiene
// diagnostics under the retirepin analyzer.
package allow

import "vettest/internal/core"

type node struct{ v int }

func suppressedAbove(h core.ReclaimerHandle[node], n *node) {
	//lint:allow retirepin golden: exercising line-above suppression
	h.Retire(n)
}

func suppressedTrailing(h core.ReclaimerHandle[node], n *node) {
	h.Retire(n) //lint:allow retirepin golden: exercising same-line suppression
}

func bareMarker(h core.ReclaimerHandle[node], n *node) {
	//lint:allow // want `bare //lint:allow marker`
	h.Retire(n) // want `raw ReclaimerHandle\.Retire is not dominated`
}

func missingReason(h core.ReclaimerHandle[node], n *node) {
	//lint:allow retirepin // want `has no reason`
	h.Retire(n) // want `raw ReclaimerHandle\.Retire is not dominated`
}

func unknownAnalyzer(h core.ReclaimerHandle[node], n *node) {
	//lint:allow nosuchcheck the analyzer name is wrong // want `unknown analyzer "nosuchcheck"`
	h.Retire(n) // want `raw ReclaimerHandle\.Retire is not dominated`
}

func staleMarker(h core.ReclaimerHandle[node], n *node) {
	//lint:allow retirepin nothing on the next line violates anything // want `suppresses nothing`
	h.LeaveQstate()
	h.Retire(n)
	h.EnterQstate()
}
