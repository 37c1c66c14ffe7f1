package bst

import "fmt"

// ForEach visits every user key/value pair currently in the tree in
// ascending key order. It walks the structure without any synchronisation
// beyond atomic pointer loads, so it is intended for quiescent moments
// (tests, statistics, shutdown); concurrent updates may or may not be
// observed.
func (t *Tree[V]) ForEach(fn func(key int64, value V) bool) {
	t.forEach(t.root, fn)
}

func (t *Tree[V]) forEach(n *Record[V], fn func(key int64, value V) bool) bool {
	if n == nil {
		return true
	}
	if n.IsLeaf() {
		if n.key >= Infinity1 {
			return true // sentinel
		}
		return fn(n.key, n.value)
	}
	if !t.forEach(n.left.Load(), fn) {
		return false
	}
	return t.forEach(n.right.Load(), fn)
}

// Len returns the number of user keys currently in the tree (quiescent use
// only; see ForEach).
func (t *Tree[V]) Len() int {
	n := 0
	t.ForEach(func(int64, V) bool { n++; return true })
	return n
}

// bound is an optional key bound used by Validate.
type bound struct {
	set bool
	key int64
}

// Validate checks the structural invariants of the external BST: every
// reachable node is an internal node or a leaf, internal nodes have two
// children, routing keys separate the subtrees (left strictly smaller,
// right greater or equal), leaves appear in strictly ascending key order,
// and at least the two sentinel leaves are present. It is intended for
// tests run at quiescent moments and returns a descriptive error on the
// first violation found.
func (t *Tree[V]) Validate() error {
	var prev *int64
	var leaves int
	var err error
	var walk func(n *Record[V], lo, hi bound) bool
	inRange := func(k int64, lo, hi bound) bool {
		if lo.set && k < lo.key {
			return false
		}
		if hi.set && k >= hi.key {
			return false
		}
		return true
	}
	walk = func(n *Record[V], lo, hi bound) bool {
		if n == nil {
			err = fmt.Errorf("bst: nil child reached")
			return false
		}
		switch n.Kind() {
		case KindLeaf:
			leaves++
			if !inRange(n.key, lo, hi) && n.key < Infinity1 {
				err = fmt.Errorf("bst: leaf key %d outside its routing range", n.key)
				return false
			}
			if prev != nil && n.key <= *prev {
				err = fmt.Errorf("bst: leaf keys out of order: %d after %d", n.key, *prev)
				return false
			}
			k := n.key
			prev = &k
			return true
		case KindInternal:
			// External BST invariant: left subtree keys < node key <= right
			// subtree keys.
			if !walk(n.left.Load(), lo, bound{set: true, key: n.key}) {
				return false
			}
			return walk(n.right.Load(), bound{set: true, key: n.key}, hi)
		default:
			err = fmt.Errorf("bst: node with unexpected kind %d reached from the root", n.Kind())
			return false
		}
	}
	if !walk(t.root, bound{}, bound{}) {
		return err
	}
	if leaves < 2 {
		return fmt.Errorf("bst: expected at least the two sentinel leaves, found %d", leaves)
	}
	return nil
}
