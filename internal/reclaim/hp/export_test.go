package hp

// IsProtected reports whether slot tid's hazard pointers announce rec: the
// announcement a scan of r reads.
func IsProtected[T any](r *Reclaimer[T], tid int, rec *T) bool {
	ptrs := r.table.rows[tid].ptrs
	for i := range ptrs {
		if ptrs[i].Load() == rec {
			return true
		}
	}
	return false
}

// Scan runs slot tid's scan now, whatever its retire bag holds.
func Scan[T any](r *Reclaimer[T], tid int) { r.handles[tid].scan() }
