// Package allow exercises the //lint:allow escape hatch and its hygiene
// diagnostics under the handlepair analyzer.
package allow

import "vettest/internal/core"

type node struct{ v int }

func suppressedAbove(m *core.RecordManager[node]) {
	//lint:allow handlepair golden: exercising line-above suppression
	h := m.AcquireHandle()
	_ = h
}

func suppressedTrailing(m *core.RecordManager[node]) {
	h := m.AcquireHandle() //lint:allow handlepair golden: exercising same-line suppression
	_ = h
}

func bareMarker(m *core.RecordManager[node]) {
	//lint:allow // want `bare //lint:allow marker`
	h := m.AcquireHandle() // want `does not reach ReleaseHandle`
	_ = h
}

func missingReason(m *core.RecordManager[node]) {
	//lint:allow handlepair // want `has no reason`
	h := m.AcquireHandle() // want `does not reach ReleaseHandle`
	_ = h
}

func unknownAnalyzer(m *core.RecordManager[node]) {
	//lint:allow nosuchcheck the analyzer name is wrong // want `unknown analyzer "nosuchcheck"`
	h := m.AcquireHandle() // want `does not reach ReleaseHandle`
	_ = h
}

func staleMarker(m *core.RecordManager[node], n *node) {
	//lint:allow handlepair nothing on the next line violates anything // want `suppresses nothing`
	h := m.AcquireHandle()
	h.Retire(n)
	m.ReleaseHandle(h)
}
