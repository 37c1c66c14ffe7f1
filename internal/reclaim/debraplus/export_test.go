package debraplus

// IsRProtected reports whether slot tid holds a recovery protection of rec:
// the announcement a sweep of r's RProtect table reads.
func IsRProtected[T any](r *Reclaimer[T], tid int, rec *T) bool {
	h := &r.handles[tid]
	n := int(h.rpCount.Load())
	for i := 0; i < n; i++ {
		if h.rpSlots[i].Load() == rec {
			return true
		}
	}
	return false
}
