package bst

import "repro/internal/neutralize"

// attemptOutcome is the result of one body execution of an update operation.
type attemptOutcome int

const (
	// attemptRetry: the attempt did not take effect; run the body again.
	attemptRetry attemptOutcome = iota
	// attemptSucceeded: the operation was published and took effect.
	attemptSucceeded
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
	for {
		outcome, oldLeaf := t.insertBody(hd, key, value, newLeaf, sibling, internal)
		switch outcome {
		case attemptSucceeded:
			// Quiescent postamble: the replaced leaf is garbage.
			rm.Retire(oldLeaf)
			return true
		case attemptKeyPresent:
			// Nothing was published; keep the records for the next update.
			hd.park(newLeaf)
			hd.park(sibling)
			hd.park(internal)
			return false
		default:
			hd.st.restarts.Inc()
		}
	}
}

// nextOp returns the id the slot's next operation attempt that may publish
// takes.
func (hd Handle[V]) nextOp() uint64 { return hd.st.desc.id.Load() + seqOne }

// mayHavePublished reports whether the attempt that took id armed its
// descriptor: its recovery protections were in place and the flag CAS may
// have run. DEBRA+ recovery asks it.
func (hd Handle[V]) mayHavePublished(id uint64) bool {
	return wordOp(hd.st.desc.outcome.Load()) == id
}

// insertBody is one execution of the insert body (Figure 5's structure). It
// returns the outcome and, on success, the leaf that was replaced.
func (t *Tree[V]) insertBody(hd Handle[V], key int64, value V,
	newLeaf, sibling, internal *Record[V]) (outcome attemptOutcome, oldLeaf *Record[V]) {
	rm, d := hd.rm, &hd.st.desc
	id := hd.nextOp()
	if t.crashRecovery {
		defer func() {
			if v := recover(); v != nil {
				if _, ok := neutralize.Recover(v); ok {
					// Recovery (running quiescent): if the attempt armed its
					// descriptor it may already have published it, so carry
					// it to completion; otherwise simply retry.
					hd.st.recov.Inc()
					if o := d.load(id); hd.mayHavePublished(id) && t.ownerInsert(hd, &o) {
						outcome, oldLeaf = attemptSucceeded, o.l
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
		return attemptKeyPresent, nil
	}
	if wordState(res.pupdate) != stateClean {
		// p is flagged or marked by another operation: help it (epoch
		// schemes) or back off (per-record schemes, which cannot safely
		// chase another operation's records — the paper's HP compromise).
		if !t.perRecord {
			t.help(hd, res.pupdate)
		}
		rm.EnterQstate()
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
	initInternal(internal, max(key, res.l.key), left, right, id|uint64(stateClean))
	o := op[V]{d: d, id: id, key: key, p: res.p, l: res.l, aux: internal, pupdate: res.pupdate}
	d.store(&o)

	if t.crashRecovery {
		rm.RProtect(res.p)
		rm.RProtect(res.l)
		rm.RProtect(internal)
	}
	d.outcome.Store(id | outcomePending)
	ok := t.ownerInsert(hd, &o)
	rm.EnterQstate()
	if t.crashRecovery {
		rm.RUnprotectAll()
	}
	if ok {
		return attemptSucceeded, res.l
	}
	return attemptRetry, nil
}

// ownerInsert is the owner's (idempotent) help procedure for its own
// insertion: ensure p is flagged with o and the insertion is carried out. It
// returns true when the insertion took effect and false when the flag could
// not be installed (the operation was never published and must be
// retried). Either way p no longer holds o's flag when it returns, which is
// what lets the slot reuse its descriptor.
func (t *Tree[V]) ownerInsert(hd Handle[V], o *op[V]) bool {
	flag := o.id | uint64(stateIFlag)
	for {
		cur := o.p.update.Load()
		switch cur {
		case flag:
			// Flag already installed (possibly before a neutralization).
			t.helpInsert(o)
			return true
		case o.pupdate:
			if o.p.update.CompareAndSwap(o.pupdate, flag) {
				t.helpInsert(o)
				return true
			}
		default:
			// Our flag is not installed and never will be. If it had been
			// installed and removed, the outcome was decided before the
			// unflag.
			if o.decided() == outcomeSucceeded {
				return true
			}
			if t.ownerHelps() {
				t.help(hd, cur)
			}
			return false
		}
	}
}

// helpInsert completes a published insertion: splice the new internal node
// in place of the old leaf and unflag the parent. Idempotent; callable by
// any thread holding a validated copy of the operation.
func (t *Tree[V]) helpInsert(o *op[V]) {
	t.casChild(o.p, o.l, o.aux, o.key)
	o.decide(outcomeSucceeded)
	o.p.update.CompareAndSwap(o.id|uint64(stateIFlag), o.id|uint64(stateClean))
}

// Delete removes key from the set, returning true if it was present.
func (hd Handle[V]) Delete(key int64) bool {
	if key >= Infinity1 {
		return false
	}
	t, rm := hd.t, hd.rm
	for {
		outcome, removedParent, removedLeaf := t.deleteBody(hd, key)
		switch outcome {
		case attemptSucceeded:
			// Quiescent postamble: the spliced-out parent and the removed
			// leaf are garbage.
			rm.Retire(removedParent)
			rm.Retire(removedLeaf)
			return true
		case attemptKeyAbsent:
			return false
		default:
			hd.st.restarts.Inc()
		}
	}
}

// deleteBody is one execution of the delete body. On success it also returns
// the spliced-out parent and removed leaf so the caller can retire them in
// its quiescent postamble.
func (t *Tree[V]) deleteBody(hd Handle[V], key int64) (outcome attemptOutcome, removedParent, removedLeaf *Record[V]) {
	rm, d := hd.rm, &hd.st.desc
	id := hd.nextOp()
	if t.crashRecovery {
		defer func() {
			if v := recover(); v != nil {
				if _, ok := neutralize.Recover(v); ok {
					hd.st.recov.Inc()
					outcome = attemptRetry
					// The records the descriptor names are still
					// recovery-protected here, until RUnprotectAll below.
					if o := d.load(id); hd.mayHavePublished(id) && t.ownerDelete(hd, &o) == outcomeSucceeded {
						outcome, removedParent, removedLeaf = attemptSucceeded, o.p, o.l
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
		return attemptKeyAbsent, nil, nil
	}
	for _, w := range [2]uint64{res.gpupdate, res.pupdate} {
		if wordState(w) != stateClean {
			if !t.perRecord {
				t.help(hd, w)
			}
			rm.EnterQstate()
			return attemptRetry, nil, nil
		}
	}

	o := op[V]{d: d, id: id, key: key, p: res.p, l: res.l, aux: res.gp, pupdate: res.pupdate, gpupdate: res.gpupdate}
	d.store(&o)

	if t.crashRecovery {
		rm.RProtect(res.gp)
		rm.RProtect(res.p)
		rm.RProtect(res.l)
	}
	d.outcome.Store(id | outcomePending)
	result := t.ownerDelete(hd, &o)
	rm.EnterQstate()
	if t.crashRecovery {
		rm.RUnprotectAll()
	}
	if result == outcomeSucceeded {
		// res.p and res.l were captured by the search while protected.
		return attemptSucceeded, res.p, res.l
	}
	// Never published, or published and backtracked: either way gp no
	// longer holds the flag, and the next attempt takes a new seq.
	return attemptRetry, nil, nil
}

// ownerDelete is the owner's (idempotent) help procedure for its own
// deletion. It returns outcomeSucceeded, outcomeFailed (published and
// backtracked) or outcomePending (the flag was never installed; nothing was
// published). Either way gp no longer holds o's flag when it returns.
func (t *Tree[V]) ownerDelete(hd Handle[V], o *op[V]) uint64 {
	gp := o.aux
	flag := o.id | uint64(stateDFlag)
	for {
		cur := gp.update.Load()
		switch cur {
		case flag:
			return t.helpDelete(hd, o)
		case o.gpupdate:
			if gp.update.CompareAndSwap(o.gpupdate, flag) {
				return t.helpDelete(hd, o)
			}
		default:
			// gp's update moved past our flag (or we never installed it).
			// If it was installed, its fate was decided before the unflag.
			if r := o.decided(); r != outcomePending {
				return r
			}
			if t.ownerHelps() {
				t.help(hd, cur)
			}
			return outcomePending
		}
	}
}

// helpDelete attempts to complete a published deletion (Ellen et al.'s
// helpDelete): mark the parent, then splice it out; if the parent cannot be
// marked because a different operation got in the way, back the deletion
// out by unflagging the grandparent. Returns outcomeSucceeded or
// outcomeFailed.
func (t *Tree[V]) helpDelete(hd Handle[V], o *op[V]) uint64 {
	mark := o.id | uint64(stateMark)
	if o.p.update.CompareAndSwap(o.pupdate, mark) || o.p.update.Load() == mark {
		t.helpMarked(o)
		return outcomeSucceeded
	}
	// Something else is installed at p: the deletion must back out.
	o.decide(outcomeFailed)
	if t.ownerHelps() {
		t.help(hd, o.p.update.Load())
	}
	o.aux.update.CompareAndSwap(o.id|uint64(stateDFlag), o.id|uint64(stateClean))
	return outcomeFailed
}

// helpMarked completes a deletion whose parent has been marked: splice the
// parent out of the tree (replacing it with the leaf's sibling) and unflag
// the grandparent. Idempotent.
func (t *Tree[V]) helpMarked(o *op[V]) {
	o.decide(outcomeSucceeded)
	// The sibling of the removed leaf under p. p is marked, so its children
	// can no longer change and these reads are stable.
	other := o.p.right.Load()
	if other == o.l {
		other = o.p.left.Load()
	}
	t.casChild(o.aux, o.p, other, o.key)
	o.aux.update.CompareAndSwap(o.id|uint64(stateDFlag), o.id|uint64(stateClean))
}

// help completes (or helps along) the operation that update word w, read
// from a node's update field, names. It is only called by epoch-protected
// threads (the per-record protection path restarts instead of helping, as
// discussed in the paper; under DEBRA+ helping happens only before the
// operation announces its own recovery protections).
func (t *Tree[V]) help(hd Handle[V], w uint64) {
	s := wordState(w)
	if s == stateClean {
		return
	}
	// Delivering a pending neutralization signal here (rather than inside
	// the CAS-heavy help procedures) keeps the window between the signal
	// and the thread's next shared-memory write as small as the simulation
	// allows; see internal/neutralize.
	hd.rm.Checkpoint()
	o, ok := t.threads[wordSlot(w)].desc.snapshot(w)
	if !ok {
		// The slot has moved on, so the operation is finished; the caller
		// restarts and re-reads the node's word.
		return
	}
	hd.st.helps.Inc()
	switch s {
	case stateIFlag:
		t.helpInsert(&o)
	case stateMark:
		t.helpMarked(&o)
	case stateDFlag:
		t.helpDelete(hd, &o)
	}
}

// ownerHelps reports whether an operation that has published, or helps one
// that has, may go on to help the operation obstructing it. Per-record
// schemes never help (see help), and under DEBRA+ the owner holds recovery
// protections only for its own operation's records.
func (t *Tree[V]) ownerHelps() bool { return !t.perRecord && !t.crashRecovery }

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
