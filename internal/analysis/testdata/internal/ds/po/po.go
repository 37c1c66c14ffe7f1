// Package po seeds hazard-pointer ordering violations for the protectorder
// analyzer.
package po

import (
	"sync/atomic"

	"vettest/internal/core"
)

type node struct {
	next atomic.Pointer[node]
	key  int64
}

type list struct {
	head atomic.Pointer[node]
}

func good(l *list, h *core.ThreadHandle[node]) int64 {
	for {
		n := l.head.Load()
		if n == nil {
			return 0
		}
		h.Protect(n)
		if l.head.Load() != n {
			h.Unprotect(n)
			continue
		}
		return n.key
	}
}

func badNoValidate(l *list, h *core.ThreadHandle[node]) int64 {
	n := l.head.Load()
	if n == nil {
		return 0
	}
	h.Protect(n) // want `n is dereferenced at line \d+ without re-validation after Protect`
	return n.key
}

func badUseAfterUnprotect(l *list, h *core.ThreadHandle[node]) int64 {
	n := l.head.Load()
	if n == nil {
		return 0
	}
	h.Protect(n)
	if l.head.Load() != n {
		h.Unprotect(n)
		return 0
	}
	k := n.key
	h.Unprotect(n)
	return k + n.key // want `n is dereferenced after Unprotect`
}

func reprotect(l *list, h *core.ThreadHandle[node]) int64 {
	n := l.head.Load()
	if n == nil {
		return 0
	}
	h.Protect(n)
	if l.head.Load() != n {
		h.Unprotect(n)
		return 0
	}
	h.Unprotect(n)
	h.Protect(n)
	if l.head.Load() != n {
		h.Unprotect(n)
		return 0
	}
	return n.key
}

func loopRescan(l *list, h *core.ThreadHandle[node], ns []*node) {
	for _, n := range ns {
		h.Protect(n)
		if l.head.Load() != n {
			h.Unprotect(n)
			continue
		}
		_ = n.key
		h.Unprotect(n)
	}
}

func validateSeparately(l *list, h *core.ThreadHandle[node]) int64 {
	n := l.head.Load()
	if n == nil {
		return 0
	}
	h.Protect(n)
	if l.head.Load() != n {
		h.Unprotect(n)
		return 0
	}
	return n.key
}

// An index-addressed list: links are words, and a record pointer is resolved
// from the word it was read as, so the word is what re-validation compares.
type inode struct {
	next atomic.Uint64
	key  int64
}

type ilist struct {
	head atomic.Uint64
	recs []inode
}

func (l *ilist) at(w uint64) *inode { return &l.recs[w] }

func goodIndexed(l *ilist, h *core.ThreadHandle[inode]) int64 {
	w := l.head.Load()
	n := l.at(w)
	h.Protect(n)
	if l.head.Load() != w {
		h.Unprotect(n)
		return 0
	}
	return n.key
}

func badIndexedNoValidate(l *ilist, h *core.ThreadHandle[inode]) int64 {
	w := l.head.Load()
	n := l.at(w)
	h.Protect(n) // want `n is dereferenced at line \d+ without re-validation after Protect`
	return n.key
}

func badIndexedOtherWord(l *ilist, h *core.ThreadHandle[inode], other uint64) int64 {
	w := l.head.Load()
	n := l.at(w)
	h.Protect(n) // want `n is dereferenced at line \d+ without re-validation after Protect`
	if l.head.Load() != other {
		h.Unprotect(n)
		return 0
	}
	return n.key
}

// A walk whose predecessor is a link word — the list head, then a record's
// link — and whose resolver also returns the slab snapshot it keeps: the
// record is validated by comparing a fresh load of the predecessor word
// against the word it was resolved from.
func (l *ilist) atSnap(snap []inode, w uint64) (*inode, []inode) {
	if snap == nil {
		snap = l.recs
	}
	return &snap[w], snap
}

func goodIndexedPredWord(l *ilist, h *core.ThreadHandle[inode]) int64 {
	pred := &l.head
	var snap []inode
	for w := pred.Load(); ; {
		var n *inode
		n, snap = l.atSnap(snap, w)
		h.Protect(n)
		if pred.Load() != w {
			h.Unprotect(n)
			return 0
		}
		if n.key != 0 {
			return n.key
		}
		pred = &n.next
		w = pred.Load()
	}
}

func badIndexedPredWordOther(l *ilist, h *core.ThreadHandle[inode], other uint64) int64 {
	pred := &l.head
	w := pred.Load()
	n, _ := l.atSnap(nil, w)
	h.Protect(n) // want `n is dereferenced at line \d+ without re-validation after Protect`
	if pred.Load() != other {
		h.Unprotect(n)
		return 0
	}
	return n.key
}
