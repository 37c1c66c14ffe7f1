package hp

// IsProtected reports whether slot tid's hazard pointers announce rec: the
// announcement a scan of r reads.
func IsProtected[T any](r *Reclaimer[T], tid int, rec *T) bool {
	ptrs := r.handles[tid].ptrs
	for i := range ptrs {
		if ptrs[i].Load() == rec {
			return true
		}
	}
	return false
}
