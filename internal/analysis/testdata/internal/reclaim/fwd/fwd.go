// Package fwd checks the retirepin forwarding exemption: inside a
// reclamation-stack package, a function that is itself a retire-path entry
// point may forward raw retires — the pin obligation belongs to its callers.
package fwd

import "vettest/internal/core"

type rec struct{ v int }

// handle is a wrapping per-thread handle (the fault plane's shape) whose
// Retire forwards to the scheme's.
type handle struct{ inner core.ReclaimerHandle[rec] }

// Retire forwards to the wrapped handle (exempt: the enclosing function is
// itself a retire-path method).
func (h *handle) Retire(x *rec) { h.inner.Retire(x) }

// drain is not a retire-path entry point, so its raw retire is still
// checked.
func (h *handle) drain(x *rec) {
	h.inner.Retire(x) // want `raw ReclaimerHandle\.Retire is not dominated`
}
