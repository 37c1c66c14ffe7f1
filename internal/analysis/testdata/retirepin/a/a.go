// Package a seeds quiescent-retire contract violations for the retirepin
// analyzer.
package a

import "vettest/internal/core"

type node struct{ v int }

func raw(h core.ReclaimerHandle[node], n *node) {
	h.Retire(n) // want `raw ReclaimerHandle\.Retire is not dominated by LeaveQstate/PinRetire`
}

func pinned(h core.ReclaimerHandle[node], n *node) {
	h.LeaveQstate()
	h.Retire(n)
	h.EnterQstate()
}

func unpinnedAfterEnter(h core.ReclaimerHandle[node], n *node) {
	h.LeaveQstate()
	h.EnterQstate()
	h.Retire(n) // want `raw ReclaimerHandle\.Retire is not dominated`
}

func pinOnOneBranchOnly(h core.ReclaimerHandle[node], n *node, cond bool) {
	if cond {
		h.LeaveQstate()
	}
	h.Retire(n) // want `raw ReclaimerHandle\.Retire is not dominated`
}

func pinOnBothBranches(h core.ReclaimerHandle[node], n *node, cond bool) {
	if cond {
		h.LeaveQstate()
	} else {
		h.LeaveQstate()
	}
	h.Retire(n)
}

func pinOrBail(h core.ReclaimerHandle[node], n *node) {
	if !h.LeaveQstate() {
		return
	}
	h.Retire(n)
}

func pinnedViaPinner(p core.RetirePinner, h core.ReclaimerHandle[node], tid int, n *node) {
	p.PinRetire(tid)
	defer p.UnpinRetire(tid) // the deferred unpin must not clear the live pin
	h.Retire(n)
}

func resolvedFromScheme(r core.Reclaimer[node], n *node) {
	r.Handle(0).Retire(n) // want `raw ReclaimerHandle\.Retire is not dominated`
}

func autoPinHandle(h *core.ThreadHandle[node], n *node) {
	h.Retire(n) // auto-pinning wrapper: exempt
}

func pinnedLoop(h core.ReclaimerHandle[node], ns []*node) {
	h.LeaveQstate()
	for _, n := range ns {
		h.Retire(n)
	}
	h.EnterQstate()
}

func pinnedClosure(h core.ReclaimerHandle[node], n *node, drain func(func())) {
	h.LeaveQstate()
	drain(func() {
		h.Retire(n) // pinned at creation point (synchronous callback)
	})
	h.EnterQstate()
}

func spawnedRetire(h core.ReclaimerHandle[node], n *node) {
	h.LeaveQstate()
	go h.Retire(n) // want `raw ReclaimerHandle\.Retire is not dominated`
	h.EnterQstate()
}
