package debraplus

import "repro/internal/blockbag"

// IsRProtected reports whether a sweep of r's RProtect table keeps rec: some
// thread holds a recovery protection of it.
func IsRProtected[T any](r *Reclaimer[T], rec *T) bool {
	bag := blockbag.New[T](nil)
	bag.Add(rec)
	r.table.Sweep(0, bag)
	return !bag.Empty()
}
