package bst

import "repro/internal/neutralize"

// attemptOutcome is the result of one body execution of an update operation.
type attemptOutcome int

const (
	// attemptRetry: nothing was published; run the body again.
	attemptRetry attemptOutcome = iota
	// attemptSucceeded: the operation's descriptor was published and the
	// operation took effect.
	attemptSucceeded
	// attemptFailedPublished: the descriptor was published but the
	// operation was backtracked (delete only); the descriptor must be
	// retired and the operation retried with a fresh one.
	attemptFailedPublished
	// attemptKeyAbsent / attemptKeyPresent: the operation completed without
	// publishing anything because the key was missing (delete) or already
	// present (insert).
	attemptKeyAbsent
	attemptKeyPresent
)

// Insert adds key with the given value to the set. It returns true if the
// key was inserted and false if it was already present (the value is not
// replaced, matching the set semantics used in the paper's experiments).
// key must be smaller than Infinity1.
func (hd Handle[V]) Insert(key int64, value V) bool {
	if key >= Infinity1 {
		panic("bst: key must be smaller than Infinity1")
	}
	t, rm := hd.t, hd.rm
	// Quiescent preamble: obtain everything the body might publish.
	// Allocation is not re-entrant, so it must not happen inside the body
	// (which can be neutralized and re-run).
	newLeaf := hd.scratch()
	sibling := hd.scratch()
	internal := hd.scratch()
	desc := hd.scratch()
	for {
		outcome, oldLeaf := t.insertBody(hd, key, value, newLeaf, sibling, internal, desc)
		switch outcome {
		case attemptSucceeded:
			// Quiescent postamble: the replaced leaf and, eventually, the
			// descriptor become garbage. The descriptor stays reachable
			// through p's update field until a later operation replaces it
			// (retire-on-replace), so only the leaf is retired here.
			if oldLeaf != nil {
				rm.Retire(oldLeaf)
			}
			return true
		case attemptKeyPresent:
			// Nothing was published; keep the records for the next update.
			hd.park(newLeaf)
			hd.park(sibling)
			hd.park(internal)
			hd.park(desc)
			return false
		default:
			hd.st.restarts.Inc()
		}
	}
}

// insertBody is one execution of the insert body (Figure 5's structure). It
// returns the outcome and, on success, the leaf that was replaced.
func (t *Tree[V]) insertBody(hd Handle[V], key int64, value V,
	newLeaf, sibling, internal, desc *Record[V]) (outcome attemptOutcome, oldLeaf *Record[V]) {
	rm := hd.rm
	if t.crashRecovery {
		defer func() {
			if v := recover(); v != nil {
				if _, ok := neutralize.Recover(v); ok {
					// Recovery (running quiescent): if we announced the
					// descriptor we may already have published it, so help
					// it to completion; otherwise simply retry.
					hd.st.recov.Inc()
					if rm.IsRProtected(desc) && t.ownerInsert(hd, desc, true) {
						outcome = attemptSucceeded
						oldLeaf = desc.infoL()
					} else {
						outcome = attemptRetry
					}
					rm.RUnprotectAll()
				}
			}
		}()
	}
	rm.LeaveQstate()
	res := t.search(hd, key)
	if !res.ok {
		rm.EnterQstate()
		return attemptRetry, nil
	}
	if res.l.key == key {
		rm.EnterQstate()
		t.releaseAllProtection(hd, res)
		return attemptKeyPresent, nil
	}
	if res.pupdate != nil && res.pupdate.state != StateClean {
		// p is flagged or marked by another operation: help it (epoch
		// schemes) or back off (per-record schemes, which cannot safely
		// chase another operation's records — the paper's HP compromise).
		if !t.perRecord {
			t.help(hd, res.p, res.pupdate)
		}
		rm.EnterQstate()
		t.releaseAllProtection(hd, res)
		return attemptRetry, nil
	}

	// Initialise the records to publish. The new internal node's children
	// are the new leaf and a copy of the existing leaf, ordered by key; the
	// existing leaf is replaced (and later retired), as in the original
	// algorithm.
	initLeaf(newLeaf, key, value)
	initLeaf(sibling, res.l.key, res.l.value)
	var left, right *Record[V]
	if key < res.l.key {
		left, right = newLeaf, sibling
	} else {
		left, right = sibling, newLeaf
	}
	maxKey := key
	if res.l.key > maxKey {
		maxKey = res.l.key
	}
	initInternal(internal, maxKey, left, right, &t.initialClean)
	initIInfo(desc, key, res.p, res.l, internal, res.pupdate)

	if t.crashRecovery {
		rm.RProtect(res.p)
		rm.RProtect(res.l)
		rm.RProtect(internal)
		if info := cellInfo(res.pupdate); info != nil {
			rm.RProtect(info)
		}
		rm.RProtect(desc)
	}
	ok := t.ownerInsert(hd, desc, false)
	rm.EnterQstate()
	if t.crashRecovery {
		rm.RUnprotectAll()
	}
	t.releaseAllProtection(hd, res)
	if ok {
		return attemptSucceeded, res.l
	}
	return attemptRetry, nil
}

// ownerInsert is the owner's (idempotent) help procedure for its own
// insertion descriptor: ensure the parent is flagged with desc and the
// insertion is carried out. It returns true when the insertion took effect
// and false when the flag could not be installed (the operation was never
// published and must be retried). inRecovery suppresses helping other
// operations, which recovery code must not do because it only holds
// recovery protections for its own operation's records.
func (t *Tree[V]) ownerInsert(hd Handle[V], desc *Record[V], inRecovery bool) bool {
	p := desc.infoP()
	for {
		if desc.outcome.Load() == outcomeSucceeded {
			return true
		}
		cur := p.update.Load()
		switch cur {
		case &desc.flagCell:
			// Flag already installed (possibly before a neutralization).
			t.helpInsert(hd, desc)
			return true
		case &desc.cleanCell:
			// Fully completed (possibly by a helper).
			return true
		case desc.pupdate:
			if p.update.CompareAndSwap(desc.pupdate, &desc.flagCell) {
				t.retireReplacedInfo(hd, desc.pupdate)
				t.helpInsert(hd, desc)
				return true
			}
		default:
			// Our flag is not installed and p's update has moved on. If the
			// operation had been published and completed, outcome would have
			// been set before p.update could move past our clean cell.
			if desc.outcome.Load() == outcomeSucceeded {
				return true
			}
			if !t.perRecord && !inRecovery && !t.crashRecovery {
				t.help(hd, p, cur)
			}
			return false
		}
	}
}

// helpInsert completes a published insertion: splice the new internal node
// in place of the old leaf and unflag the parent. Idempotent; callable by
// any thread that holds a safe reference to desc.
func (t *Tree[V]) helpInsert(hd Handle[V], desc *Record[V]) {
	p := desc.infoP()
	t.casChild(p, desc.infoL(), desc.infoNewChild(), desc.key)
	desc.outcome.CompareAndSwap(outcomePending, outcomeSucceeded)
	p.update.CompareAndSwap(&desc.flagCell, &desc.cleanCell)
}

// Delete removes key from the set, returning true if it was present.
func (hd Handle[V]) Delete(key int64) bool {
	if key >= Infinity1 {
		return false
	}
	t, rm := hd.t, hd.rm
	// Quiescent preamble.
	desc := hd.scratch()
	for {
		outcome, removedParent, removedLeaf := t.deleteBody(hd, key, desc)
		switch outcome {
		case attemptSucceeded:
			// The spliced-out parent and the removed leaf are garbage; the
			// descriptor remains referenced by gp's update field and is
			// retired by whichever operation later replaces that reference.
			// The two records were captured inside the body, while the
			// descriptor was still safe to read: once we are quiescent the
			// descriptor itself may be retired (retire-on-replace) and
			// recycled by another thread at any moment.
			rm.Retire(removedParent)
			rm.Retire(removedLeaf)
			return true
		case attemptKeyAbsent:
			hd.park(desc)
			return false
		case attemptFailedPublished:
			// The descriptor was flagged into gp and then backtracked; it
			// stays reachable through gp's update field, so obtain a
			// fresh descriptor for the next attempt and let
			// retire-on-replace dispose of this one.
			desc = hd.scratch()
			hd.st.restarts.Inc()
		default:
			hd.st.restarts.Inc()
		}
	}
}

// deleteBody is one execution of the delete body. On success it also returns
// the spliced-out parent and removed leaf (captured while the descriptor was
// still safe to read) so the caller can retire them in its quiescent
// postamble.
func (t *Tree[V]) deleteBody(hd Handle[V], key int64, desc *Record[V]) (outcome attemptOutcome, removedParent, removedLeaf *Record[V]) {
	rm := hd.rm
	if t.crashRecovery {
		defer func() {
			if v := recover(); v != nil {
				if _, ok := neutralize.Recover(v); ok {
					hd.st.recov.Inc()
					if rm.IsRProtected(desc) {
						// The descriptor (and the records it names) are
						// still recovery-protected here, so reading its
						// fields is safe until RUnprotectAll below.
						switch t.ownerDelete(hd, desc, true) {
						case outcomeSucceeded:
							outcome = attemptSucceeded
							removedParent, removedLeaf = desc.infoP(), desc.infoL()
						case outcomeFailed:
							outcome = attemptFailedPublished
						default:
							outcome = attemptRetry
						}
					} else {
						outcome = attemptRetry
					}
					rm.RUnprotectAll()
				}
			}
		}()
	}
	rm.LeaveQstate()
	res := t.search(hd, key)
	if !res.ok {
		rm.EnterQstate()
		return attemptRetry, nil, nil
	}
	if res.l.key != key {
		rm.EnterQstate()
		t.releaseAllProtection(hd, res)
		return attemptKeyAbsent, nil, nil
	}
	if res.gpupdate != nil && res.gpupdate.state != StateClean {
		if !t.perRecord {
			t.help(hd, res.gp, res.gpupdate)
		}
		rm.EnterQstate()
		t.releaseAllProtection(hd, res)
		return attemptRetry, nil, nil
	}
	if res.pupdate != nil && res.pupdate.state != StateClean {
		if !t.perRecord {
			t.help(hd, res.p, res.pupdate)
		}
		rm.EnterQstate()
		t.releaseAllProtection(hd, res)
		return attemptRetry, nil, nil
	}

	initDInfo(desc, key, res.gp, res.p, res.l, res.pupdate, res.gpupdate)

	if t.crashRecovery {
		rm.RProtect(res.gp)
		rm.RProtect(res.p)
		rm.RProtect(res.l)
		if info := cellInfo(res.pupdate); info != nil {
			rm.RProtect(info)
		}
		if info := cellInfo(res.gpupdate); info != nil {
			rm.RProtect(info)
		}
		rm.RProtect(desc)
	}
	result := t.ownerDelete(hd, desc, false)
	rm.EnterQstate()
	if t.crashRecovery {
		rm.RUnprotectAll()
	}
	t.releaseAllProtection(hd, res)
	switch result {
	case outcomeSucceeded:
		// res.p and res.l were captured by the search while protected.
		return attemptSucceeded, res.p, res.l
	case outcomeFailed:
		return attemptFailedPublished, nil, nil
	default:
		return attemptRetry, nil, nil
	}
}

// ownerDelete is the owner's (idempotent) help procedure for its own
// deletion descriptor. It returns outcomeSucceeded, outcomeFailed (the
// descriptor was published and backtracked) or outcomePending (the flag was
// never installed; nothing was published). inRecovery suppresses helping
// other operations (see ownerInsert).
func (t *Tree[V]) ownerDelete(hd Handle[V], desc *Record[V], inRecovery bool) int32 {
	gp := desc.infoGP()
	for {
		if o := desc.outcome.Load(); o != outcomePending {
			return o
		}
		cur := gp.update.Load()
		switch cur {
		case &desc.flagCell:
			if t.helpDelete(hd, desc, inRecovery) {
				return outcomeSucceeded
			}
			return outcomeFailed
		case desc.gpupdate:
			if gp.update.CompareAndSwap(desc.gpupdate, &desc.flagCell) {
				t.retireReplacedInfo(hd, desc.gpupdate)
				if t.helpDelete(hd, desc, inRecovery) {
					return outcomeSucceeded
				}
				return outcomeFailed
			}
		default:
			// gp's update moved past our flag (or we never installed it).
			// If it was installed, its fate was decided (outcome set) before
			// the unflag, so re-reading outcome disambiguates.
			if o := desc.outcome.Load(); o != outcomePending {
				return o
			}
			if !t.perRecord && !inRecovery && !t.crashRecovery {
				t.help(hd, gp, cur)
			}
			return outcomePending
		}
	}
}

// helpDelete attempts to complete a published deletion (Ellen et al.'s
// helpDelete): mark the parent, then splice it out; if the parent cannot be
// marked because a different operation got in the way, back the deletion
// out by unflagging the grandparent. Returns true when the deletion took
// effect. inRecovery suppresses helping the obstructing operation.
func (t *Tree[V]) helpDelete(hd Handle[V], desc *Record[V], inRecovery bool) bool {
	p := desc.infoP()
	marked := p.update.CompareAndSwap(desc.pupdate, &desc.markCell)
	if marked {
		// We removed the last tree reference to the parent's previous Info.
		t.retireReplacedInfo(hd, desc.pupdate)
	}
	if marked || p.update.Load() == &desc.markCell {
		t.helpMarked(hd, desc)
		return true
	}
	// Something else is installed at p: the deletion must back out.
	desc.outcome.CompareAndSwap(outcomePending, outcomeFailed)
	if !t.perRecord && !inRecovery && !t.crashRecovery {
		t.help(hd, p, p.update.Load())
	}
	desc.infoGP().update.CompareAndSwap(&desc.flagCell, &desc.cleanCell)
	return false
}

// helpMarked completes a deletion whose parent has been marked: splice the
// parent out of the tree (replacing it with the leaf's sibling) and unflag
// the grandparent. Idempotent.
func (t *Tree[V]) helpMarked(hd Handle[V], desc *Record[V]) {
	desc.outcome.CompareAndSwap(outcomePending, outcomeSucceeded)
	// The sibling of the removed leaf under p. p is marked, so its children
	// can no longer change and these reads are stable.
	gp, p := desc.infoGP(), desc.infoP()
	other := p.right.Load()
	if other == desc.infoL() {
		other = p.left.Load()
	}
	t.casChild(gp, p, other, desc.key)
	gp.update.CompareAndSwap(&desc.flagCell, &desc.cleanCell)
}

// help completes (or helps along) the operation owning the update cell that
// was read from node's update field. It is only called by epoch-protected
// threads (the per-record protection path restarts instead of helping, as
// discussed in the paper; under DEBRA+ helping happens only before the
// operation announces its own recovery protections).
func (t *Tree[V]) help(hd Handle[V], node *Record[V], cell *UpdateCell[V]) {
	if cell == nil || node == nil || cellInfo(cell) == nil {
		return
	}
	// Delivering a pending neutralization signal here (rather than inside
	// the CAS-heavy help procedures) keeps the window between the signal
	// and the thread's next shared-memory write as small as the simulation
	// allows; see internal/neutralize.
	hd.rm.Checkpoint()
	// Re-validate that the cell is still installed. By the retire-on-replace
	// rule an Info record is only retired after its cell has been replaced,
	// so "still installed" implies the Info has not been retired (and hence
	// not recycled) and its fields are safe to read. This guards the helper
	// against descriptors that were reclaimed behind a neutralized reader.
	if node.update.Load() != cell {
		return
	}
	hd.st.helps.Inc()
	info := cellInfo(cell)
	switch cell.state {
	case StateIFlag:
		t.helpInsert(hd, info)
	case StateMark:
		t.helpMarked(hd, info)
	case StateDFlag:
		t.helpDelete(hd, info, false)
	}
}

// casChild installs new in place of old as the child of parent on the side
// that searchKey routes to. The side is determined by comparing the
// operation's search key with the parent's key, which is stable because the
// parent's children cannot have changed since the operation's flag CAS
// succeeded (children only change under a flag, and a flag change would have
// failed that CAS).
func (t *Tree[V]) casChild(parent, old, new *Record[V], searchKey int64) bool {
	if searchKey < parent.key {
		return parent.left.CompareAndSwap(old, new)
	}
	return parent.right.CompareAndSwap(old, new)
}

// retireReplacedInfo retires the Info record whose clean cell has just been
// replaced by a successful CAS (the retire-on-replace rule). The initial
// clean cell has no owning Info and is never retired.
func (t *Tree[V]) retireReplacedInfo(hd Handle[V], replaced *UpdateCell[V]) {
	if info := cellInfo(replaced); info != nil {
		hd.rm.Retire(info)
	}
}
