package core

import (
	"sync/atomic"

	"rphash/internal/obs"
)

// Writer-side operations. Each locks only the stripe covering the
// chain its key hashes to (see stripe.go), so writers to different
// buckets run in parallel; none ever blocks a reader. Each follows
// the relativistic discipline: fully initialize, then publish with a
// single pointer store; destructive steps happen only after the
// structure is consistent for every possible reader trajectory.
//
// While a writer holds its stripe, the bucket-array pointer and the
// stripe mask are frozen (both change only under every stripe), so
// the find/insert/unlink helpers may load t.ht once and trust it.
//
// Pure inserts additionally have a lock-free fast path (tryInsertCAS
// below): publish by CAS on the bucket head, then re-validate the
// resize epoch. Because fast-path inserts can land on a bucket head
// at any instant, every stripe-holding publication of a bucket head
// in this file is itself a CAS (or a CAS with a predecessor-walk
// retry), never a plain store — a plain store could silently drop a
// concurrent fast-path prepend. Interior next-pointer stores stay
// plain: the fast path never touches an existing node's next field.
//
// Reclamation is the collector's job: no write here queues grace-
// period work (rcu.Defer). An unlinked node keeps its next pointer, so
// a reader standing on it walks on into the live chain past everything
// that was behind it — point writes only prepend at a head or skip a
// victim, and a resize waits that reader out before each redirection
// as it does one on a live node (its section predates the unlink, and
// no new reader can reach the node). The last reader to let go frees it.

// Set inserts or replaces the value for k, returning true if the key
// was newly inserted.
func (t *Table[K, V]) Set(k K, v V) bool {
	return t.SetHashed(t.hash(k), k, v)
}

// SetHashed is Set with the key's table hash precomputed; h must
// equal the table's hash of k. Multi-table front-ends
// (internal/shard) hash once to route and pass the hash through
// rather than paying a second hash inside the shard.
func (t *Table[K, V]) SetHashed(h uint64, k K, v V) bool {
	return t.eng.setHashed(h, k, v)
}

// chainSetHashed is the chain engine's upsert: hint-validated replace
// fast path, CAS insert fast path, striped fallback.
func (t *Table[K, V]) chainSetHashed(h uint64, k K, v V) bool {
	pr := t.opStart(h)
	if !t.noCASInsert {
		// Replace fast path, open-coded so the common upsert-on-
		// existing-key case pays no extra call frames: an unprotected
		// hint walk locates the node, then a stripe-held revalidation
		// proves it is still THE live node for the key (the soundness
		// argument lives on casHintValid). Only the locator is
		// lock-free; the value store is an exact striped replace. The
		// hint can never prove absence — a miss falls through to the
		// epoch-validated insert fast path, the only absence proof.
		e1 := t.resizeEpoch.Load()
		if e1&1 == 0 && t.unzipParent.Load() == 0 {
			ht := t.ht.Load()
			for c := ht.bucketFor(h).Load(); c != nil; c = c.next.Load() {
				if c.hash == h && c.key == k {
					s := t.lockHash(h)
					if t.casHintValid(e1, c) {
						// In-place relativistic value replacement:
						// readers observe either the complete old or
						// complete new value.
						c.val.Store(&v)
						s.mu.Unlock()
						t.opRecord(pr, h, obs.OpSet, obs.PathHintReplace, obs.OutReplaced)
						return false
					}
					s.mu.Unlock()
					goto striped // dead hint (rare): redo under stripes
				}
			}
			switch t.tryInsertCAS(h, k, &v) {
			case casInsertDone:
				t.maybeAutoResizeBackpressure()
				t.opRecord(pr, h, obs.OpSet, obs.PathCASInsert, obs.OutInserted)
				return true
			case casInsertKeyPresent, casInsertFallback:
				// The absence walk saw the key after all (the hint
				// raced an insert), or contention/epoch motion: redo
				// under the stripes below.
			}
		}
	}
striped:
	s := t.lockHash(h)
	n, head := t.findHeadLocked(h, k)
	if n == nil {
		n = t.insertLocked(h, k, &v, head)
	}
	if n != nil {
		n.val.Store(&v)
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpSet, obs.PathStriped, obs.OutReplaced)
		return false
	}
	s.mu.Unlock()
	t.maybeAutoResizeBackpressure()
	t.opRecord(pr, h, obs.OpSet, obs.PathStriped, obs.OutInserted)
	return true
}

// Swap upserts k and returns the value it displaced, if any. It is
// Set with the previous value handed back — the primitive accounting
// layers (internal/cache) need to adjust cost totals atomically with
// respect to other writers on the same key. The read-out and the
// replacement happen under the key's stripe, so two racing Swaps on
// one key always observe each other's values in some order: no
// displaced value is ever observed twice or lost.
func (t *Table[K, V]) Swap(k K, v V) (old V, replaced bool) {
	return t.SwapHashed(t.hash(k), k, v)
}

// SwapHashed is Swap with the key's table hash precomputed (see
// SetHashed).
func (t *Table[K, V]) SwapHashed(h uint64, k K, v V) (old V, replaced bool) {
	return t.eng.swapHashed(h, k, v)
}

// chainSwapHashed is the chain engine's swap-upsert.
func (t *Table[K, V]) chainSwapHashed(h uint64, k K, v V) (old V, replaced bool) {
	pr := t.opStart(h)
	if !t.noCASInsert {
		// Mirrors SetHashed's open-coded replace fast path, with the
		// displaced value read under the same stripe that validates
		// the hint — the read-out/replacement atomicity the accounting
		// layers depend on is exactly the striped path's.
		e1 := t.resizeEpoch.Load()
		if e1&1 == 0 && t.unzipParent.Load() == 0 {
			ht := t.ht.Load()
			for c := ht.bucketFor(h).Load(); c != nil; c = c.next.Load() {
				if c.hash == h && c.key == k {
					s := t.lockHash(h)
					if t.casHintValid(e1, c) {
						old = *c.val.Load()
						c.val.Store(&v)
						s.mu.Unlock()
						t.opRecord(pr, h, obs.OpSwap, obs.PathHintReplace, obs.OutReplaced)
						return old, true
					}
					s.mu.Unlock()
					goto striped // dead hint (rare): redo under stripes
				}
			}
			if t.tryInsertCAS(h, k, &v) == casInsertDone {
				t.maybeAutoResizeBackpressure()
				t.opRecord(pr, h, obs.OpSwap, obs.PathCASInsert, obs.OutInserted)
				return old, false
			}
		}
	}
striped:
	s := t.lockHash(h)
	n, head := t.findHeadLocked(h, k)
	if n == nil {
		n = t.insertLocked(h, k, &v, head)
	}
	if n != nil {
		old = *n.val.Load()
		n.val.Store(&v)
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpSwap, obs.PathStriped, obs.OutReplaced)
		return old, true
	}
	s.mu.Unlock()
	t.maybeAutoResizeBackpressure()
	t.opRecord(pr, h, obs.OpSwap, obs.PathStriped, obs.OutInserted)
	return old, false
}

// Insert adds k only if absent; it reports whether it inserted.
func (t *Table[K, V]) Insert(k K, v V) bool {
	return t.InsertHashed(t.hash(k), k, v)
}

// InsertHashed is Insert with the key's table hash precomputed (see
// SetHashed).
func (t *Table[K, V]) InsertHashed(h uint64, k K, v V) bool {
	return t.eng.insertHashed(h, k, v)
}

// chainInsertHashed is the chain engine's insert-if-absent.
func (t *Table[K, V]) chainInsertHashed(h uint64, k K, v V) bool {
	pr := t.opStart(h)
	if !t.noCASInsert {
		switch t.tryInsertCAS(h, k, &v) {
		case casInsertDone:
			t.maybeAutoResizeBackpressure()
			t.opRecord(pr, h, obs.OpInsert, obs.PathCASInsert, obs.OutInserted)
			return true
		case casInsertKeyPresent:
			// The absence walk observed the key: the insert
			// linearizes at that observation and fails.
			t.opRecord(pr, h, obs.OpInsert, obs.PathCASInsert, obs.OutNoop)
			return false
		}
	}
	s := t.lockHash(h)
	n, head := t.findHeadLocked(h, k)
	if n != nil || t.insertLocked(h, k, &v, head) != nil {
		// Present, or a lock-free insert of k landed first.
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpInsert, obs.PathStriped, obs.OutNoop)
		return false
	}
	s.mu.Unlock()
	t.maybeAutoResizeBackpressure()
	t.opRecord(pr, h, obs.OpInsert, obs.PathStriped, obs.OutInserted)
	return true
}

// Replace updates the value only if k is present; it reports whether
// it replaced.
func (t *Table[K, V]) Replace(k K, v V) bool {
	return t.ReplaceHashed(t.hash(k), k, v)
}

// ReplaceHashed is Replace with the key's table hash precomputed (see
// SetHashed).
func (t *Table[K, V]) ReplaceHashed(h uint64, k K, v V) bool {
	return t.eng.replaceHashed(h, k, v)
}

// chainReplaceHashed is the chain engine's replace-if-present.
func (t *Table[K, V]) chainReplaceHashed(h uint64, k K, v V) bool {
	s := t.lockHash(h)
	defer s.mu.Unlock()
	n := t.findLocked(h, k)
	if n == nil {
		return false
	}
	n.val.Store(&v)
	return true
}

// Delete removes k, reporting whether it was present. Readers that
// still hold the unlinked node finish their walk through it; the
// collector frees it once they have.
func (t *Table[K, V]) Delete(k K) bool {
	return t.DeleteHashed(t.hash(k), k)
}

// DeleteHashed is Delete with the key's table hash precomputed (see
// SetHashed).
func (t *Table[K, V]) DeleteHashed(h uint64, k K) bool {
	_, ok := t.CompareAndDeleteHashed(h, k, nil)
	return ok
}

// CompareAndDelete removes k only if match accepts its current value
// (nil match accepts anything), returning the removed value. The
// check and the unlink happen under the key's stripe, so a concurrent
// Set cannot slip a fresh value in between: expiry sweepers and
// eviction samplers use this to guarantee they only remove the exact
// entry they examined.
func (t *Table[K, V]) CompareAndDelete(k K, match func(V) bool) (V, bool) {
	return t.CompareAndDeleteHashed(t.hash(k), k, match)
}

// CompareAndDeleteHashed is CompareAndDelete with the key's table
// hash precomputed (see SetHashed).
func (t *Table[K, V]) CompareAndDeleteHashed(h uint64, k K, match func(V) bool) (V, bool) {
	return t.eng.compareAndDeleteHashed(h, k, match)
}

// chainCompareAndDeleteHashed is the chain engine's guarded delete.
func (t *Table[K, V]) chainCompareAndDeleteHashed(h uint64, k K, match func(V) bool) (V, bool) {
	pr := t.opStart(h)
	s := t.lockHash(h)
	removed, ok := t.unlinkLocked(h, k, match)
	s.mu.Unlock()
	if !ok {
		var zero V
		t.opRecord(pr, h, obs.OpDelete, obs.PathStriped, obs.OutMiss)
		return zero, false
	}
	t.maybeAutoResize()
	t.opRecord(pr, h, obs.OpDelete, obs.PathStriped, obs.OutDeleted)
	return removed, true
}

// unlinkLocked removes the node for (h, k) from its chain — provided
// match (nil = always) accepts its current value — returning the
// removed value. The caller holds the stripe covering h. This is the
// single copy of the write-side unlink sequence: redirect the
// predecessor (or the bucket head), patch the zipped sibling chain if
// an expansion is in flight, dead-mark the node, decrement the count,
// bump the delete stat. The node is then unreachable from every
// bucket head; its next pointer is left alone (see the file comment).
func (t *Table[K, V]) unlinkLocked(h uint64, k K, match func(V) bool) (V, bool) {
	ht := t.ht.Load()
	slot := ht.bucketFor(h)
	var prev *node[K, V]
	for n := slot.Load(); n != nil; n = n.next.Load() {
		if n.hash == h && n.key == k {
			removed := *n.val.Load()
			if match != nil && !match(removed) {
				break
			}
			next := n.next.Load()
			if prev == nil {
				t.casUnlinkHead(slot, n, next)
			} else {
				prev.next.Store(next)
			}
			t.unlinkSiblingLocked(ht, h, n, next)
			// Dead-mark the victim under the stripe. Two readers of the
			// mark: fast-path insert recovery (a still-speculative node
			// marked here took effect before being removed, so recovery
			// must not re-insert it) and the upsert in-place replace
			// (a node NOT marked, revalidated under this same stripe,
			// is still the live node for its key).
			n.casState.Store(casConsumed)
			t.wc.count.Add(-1)
			t.wc.deletes.Add(1)
			return removed, true
		}
		prev = n
	}
	var zero V
	return zero, false
}

// unlinkSiblingLocked completes an unlink while an expansion's unzip
// is in flight. Mid-unzip, chains are zipped: the victim may also be
// reachable from its parent bucket's OTHER child — either because the
// sibling's head slot still points through it or because the two
// child chains converge at it (a node at the junction of a shared
// suffix has a physical predecessor on EACH chain). If any such
// pointer survived the home-chain unlink, the dead node would stay
// reachable from a bucket head, where unzipStep derives its cut
// points from whatever chains it finds and the invariant checkers
// require every reachable node to be live. So: walk the sibling chain
// and redirect whatever still points at the victim. The sibling
// bucket differs from the home bucket only in the old-size bit —
// above the stripe mask — so the caller's stripe covers it too.
// Outside an unzip window this is a single atomic load.
func (t *Table[K, V]) unlinkSiblingLocked(ht *buckets[K, V], h uint64, victim, next *node[K, V]) {
	parent := t.unzipParent.Load()
	if parent == 0 {
		return
	}
	// unzipParent and the bucket array are published together under
	// all stripes, and we hold one, so ht is the doubled array.
	sib := &ht.slot[(h&ht.mask)^parent]
	if sib.CompareAndSwap(victim, next) {
		return
	}
	for n := sib.Load(); n != nil; n = n.next.Load() {
		if n.next.Load() == victim {
			n.next.Store(next)
			return
		}
	}
}

// Move renames oldKey to newKey. It fails if oldKey is absent or
// newKey already exists.
//
// Concurrency guarantee (the paper's "atomic move" from prior work):
// the value is never absent from the table — the newKey copy is
// published before the oldKey node is unlinked. Consequently a reader
// that looks up oldKey, misses, and then looks up newKey is
// guaranteed to find the value, provided no second Move of the same
// value raced the pair of probes (sequential probes are not a
// snapshot; no reader-side scheme can make them one). A concurrent
// reader may transiently observe the value under both keys.
//
// Move locks the stripes of both keys (in ascending index order, the
// global lock order), so it is atomic with respect to every writer
// touching either chain.
func (t *Table[K, V]) Move(oldKey, newKey K) bool {
	if oldKey == newKey {
		return t.Contains(oldKey)
	}
	return t.eng.move(oldKey, newKey)
}

// chainMove is the chain engine's rename; oldKey != newKey.
func (t *Table[K, V]) chainMove(oldKey, newKey K) bool {
	oh, nh := t.hash(oldKey), t.hash(newKey)
	s1, s2 := t.lockHash2(oh, nh)
	unlock := func() {
		if s2 != nil {
			s2.mu.Unlock()
		}
		s1.mu.Unlock()
	}
	src := t.findLocked(oh, oldKey)
	dst, head := t.findHeadLocked(nh, newKey)
	if src == nil || dst != nil {
		unlock()
		return false
	}
	// Publish the copy first (value shared via the same pointer), so
	// there is no instant with the value unreachable. A lock-free
	// insert of newKey may still land before the publish; then newKey
	// exists after all and the move fails.
	ht := t.ht.Load()
	cp := &node[K, V]{hash: nh, key: newKey}
	cp.val.Store(src.val.Load())
	if t.publishLocked(ht.bucketFor(nh), cp, head) != nil {
		unlock()
		return false
	}
	t.stats.moves.Add(1)

	// Now unlink the original (patching the zipped sibling chain if
	// an expansion is mid-unzip, exactly like a delete).
	oslot := ht.bucketFor(oh)
	var prev *node[K, V]
	for n := oslot.Load(); n != nil; n = n.next.Load() {
		if n == src {
			next := n.next.Load()
			if prev == nil {
				t.casUnlinkHead(oslot, src, next)
			} else {
				prev.next.Store(next)
			}
			t.unlinkSiblingLocked(ht, oh, src, next)
			src.casState.Store(casConsumed) // dead mark (see unlinkLocked)
			break
		}
		prev = n
	}
	unlock()
	return true
}

// findLocked returns the node for (h,k) in the current array, or nil.
// The caller holds the stripe covering h.
func (t *Table[K, V]) findLocked(h uint64, k K) *node[K, V] {
	n, _ := t.findHeadLocked(h, k)
	return n
}

// findHeadLocked is findLocked for callers that go on to insert: on a
// miss it also returns the bucket head its walk started from, the head
// the absence proof covers, which the caller hands to insertLocked.
// The caller holds the stripe covering h.
func (t *Table[K, V]) findHeadLocked(h uint64, k K) (n, head *node[K, V]) {
	head = t.ht.Load().bucketFor(h).Load()
	for n = head; n != nil; n = n.next.Load() {
		if n.hash == h && n.key == k {
			return n, head
		}
	}
	return nil, head
}

// insertLocked publishes a new node for (h,k) against head, the head
// findHeadLocked proved k absent behind. It returns nil once the node
// is in, or a rival: a node for k that a lock-free insert
// (tryInsertCAS, which takes no stripe) published after the walk, in
// which case the caller treats k as present. The caller holds the
// stripe covering h and owns *vp, the node's value box — passing the
// box instead of the value lets callers whose value already escaped
// (every public upsert boxes once for its fast path) insert with no
// second allocation; the box must not be mutated after the call. Head
// insertion is always safe, even mid-unzip: a new head only prepends
// to the home chain's exclusive prefix, never disturbing a shared
// suffix.
func (t *Table[K, V]) insertLocked(h uint64, k K, vp *V, head *node[K, V]) *node[K, V] {
	n := &node[K, V]{hash: h, key: k}
	n.val.Store(vp)
	if rival := t.publishLocked(t.ht.Load().bucketFor(h), n, head); rival != nil {
		return rival
	}
	t.wc.count.Add(1)
	t.wc.inserts.Add(1)
	return nil
}

// publishLocked links the unpublished node n in at slot by CAS against
// head, the head an absence walk for n's key started from. The stripe
// the caller holds excludes every change to the chain except lock-free
// prepends, so a failed CAS needs only the new prefix checked, from
// the current head down to the old one: a node for n's key there is
// returned as the rival and n stays unpublished; otherwise the CAS
// retries against the current head.
func (t *Table[K, V]) publishLocked(slot *atomic.Pointer[node[K, V]], n, head *node[K, V]) *node[K, V] {
	if t.testHookBeforePublish != nil {
		t.testHookBeforePublish()
	}
	for {
		n.next.Store(head)                // initialize ...
		if slot.CompareAndSwap(head, n) { // ... then publish
			return nil
		}
		cur := slot.Load()
		for c := cur; c != head; c = c.next.Load() {
			if c.hash == n.hash && c.key == n.key {
				return c
			}
		}
		head = cur
	}
}

// casUnlinkHead redirects a bucket head past victim (whose current
// successor is next). The caller holds the stripe, but fast-path
// inserts may have prepended new nodes above the victim since the
// caller's walk, so a plain store could drop them: CAS first, and on
// failure walk from the new head to the victim's current predecessor.
// That predecessor is stable once found — fast-path inserts only
// prepend at the head, and every other mutation of this chain needs
// the stripe we hold.
func (t *Table[K, V]) casUnlinkHead(slot *atomic.Pointer[node[K, V]], victim, next *node[K, V]) {
	if slot.CompareAndSwap(victim, next) {
		return
	}
	for n := slot.Load(); n != nil; n = n.next.Load() {
		if n.next.Load() == victim {
			n.next.Store(next)
			return
		}
	}
}

// ---------------------------------------------------------------------
// Lock-free insert fast path.

// casInsertOutcome is tryInsertCAS's verdict.
type casInsertOutcome int

const (
	// casInsertDone: the node was published by CAS and committed (or
	// committed and then consumed by a later stripe writer). The
	// insert happened.
	casInsertDone casInsertOutcome = iota
	// casInsertKeyPresent: the absence walk observed the key.
	// Nothing was published; a pure insert (InsertHashed) linearizes
	// at that observation and fails, an upsert redoes the operation
	// under its stripe.
	casInsertKeyPresent
	// casInsertFallback: the fast path declined (resize epoch odd or
	// moved, unzip window open, head contention budget exhausted, or
	// a published node had to be undone). The caller must redo the
	// operation under its stripe.
	casInsertFallback
)

// casInsertRetries bounds head-CAS retries before declining to the
// striped path: under heavy same-bucket contention the stripe's queue
// is fairer (and cheaper) than an unbounded CAS storm.
const casInsertRetries = 4

// tryInsertCAS attempts a pure insert without taking any lock or
// entering a read-side section: pin the bucket array to an even resize
// epoch, prove the key absent by walking its chain, publish the new
// node with one CAS on the bucket head, re-validate the epoch (see
// Table.resizeEpoch).
//
// An unchanged epoch proves that no all-stripes section — shrink
// capture, expand publish, unzip-window close — and no
// unzip window (unzipParent is read at e1, and opening a window moves
// the epoch) overlapped the attempt: the node went into the live
// array and no capture walk missed it. On a mismatch recoverInsertCAS
// decides, under the stripe, whether the node was captured or dropped.
//
// The walk is exact without a section because only a resize can hide
// a node from it. Point writers prepend at the head or skip a victim,
// which keeps its own next, so a walk from a head loaded at time T
// passes every node that stays on the chain until the CAS, and the CAS
// succeeding proves the head — hence, inserts being prepends, the key
// set behind it — gained nothing since T. Resizes redirect live
// pointers (zip link, unzip cut) only after moving the epoch. If the
// final check fails, the first section since e1 to replace the array
// read this slot either after the CAS — its redirects follow its
// capture, so the walk preceded them — or before it, leaving the node
// in a dead array for recovery to undo whatever the walk saw. The one
// unsound schedule is walking an array loaded AFTER such a publish
// under a pre-publish e1: the CAS would land in the live array and be
// adopted with nothing vouching for the walk. So ht is loaded once,
// between two reads of e1, and reused by every retry.
//
// The node is published casSpeculative. A stripe writer that unlinks
// it before it commits flips it to casConsumed, which recovery reads
// as "took effect, then removed": it must NOT be re-inserted. The
// count goes up right after the CAS so a racing delete's decrement
// balances; the undo rolls it back. vp is the caller's value box,
// which keeps the fast path at two heap objects per insert.
func (t *Table[K, V]) tryInsertCAS(h uint64, k K, vp *V) casInsertOutcome {
	e1 := t.resizeEpoch.Load()
	ht := t.ht.Load()
	if e1&1 != 0 || t.unzipParent.Load() != 0 || t.resizeEpoch.Load() != e1 {
		t.stats.casFallbacks.Add(1)
		return casInsertFallback
	}
	slot := ht.bucketFor(h)
	var n *node[K, V]
	for attempt := 0; attempt < casInsertRetries; attempt++ {
		head := slot.Load()
		for c := head; c != nil; c = c.next.Load() {
			if c.hash == h && c.key == k {
				return casInsertKeyPresent
			}
		}
		if n == nil {
			// Allocate only once absence has actually been observed, so
			// an upsert that lands on an existing key pays no
			// allocation for the probe.
			n = &node[K, V]{hash: h, key: k}
			n.val.Store(vp)
			n.casState.Store(casSpeculative)
		}
		n.next.Store(head)
		if !slot.CompareAndSwap(head, n) {
			continue // head moved; re-prove absence against the new head
		}
		t.wc.count.Add(1)
		if t.resizeEpoch.Load() == e1 {
			// Commit. A lost flip means a stripe writer already
			// consumed the node — possible only after the insert took
			// effect, so the outcome is the same.
			n.casState.CompareAndSwap(casSpeculative, casCommitted)
			t.wc.casFastInserts.Add(1)
			return casInsertDone
		}
		return t.recoverInsertCAS(h, n)
	}
	t.stats.casFallbacks.Add(1)
	return casInsertFallback
}

// casHintValid is the revalidation step of the open-coded replace
// fast path in SetHashed/SwapHashed: those walk the key's chain with
// no protection at all (no stripe, no read-side section) to locate a
// candidate node cheaply, then lock the stripe and call this. The two
// checks together prove from scratch that n is still THE live node
// for its key, no matter how stale the hint walk was:
//
//   - resizeEpoch unchanged (and even) since before the walk, with
//     unzipParent zero at the same point: no all-stripes section ran,
//     so the bucket array and the stripe mask are the ones the walk
//     used, and the stripe held here is the stripe that covered the
//     key throughout. This also rules out the walk having surfaced a
//     node a superseding array silently dropped (recoverInsertCAS's
//     undo case): dropping one requires an array publish, which moves
//     the epoch.
//   - casState != casConsumed: every unlink of this node (delete,
//     move) serializes on that same stripe and dead-marks the node
//     before releasing it, so an unmarked node has not been unlinked
//     — and since every insert of the key publishes against the head
//     its absence walk covered (tryInsertCAS, publishLocked), no rival
//     node for the key can exist either.
//
// The caller's value store is then an exact striped replace —
// serialized with every other writer on the key — with the chain walk
// already paid for lock-free. On a false return (rare: a resize
// overlapped, or the node died between walk and lock) the caller
// redoes the full upsert under the stripe.
func (t *Table[K, V]) casHintValid(e1 uint64, n *node[K, V]) bool {
	return t.resizeEpoch.Load() == e1 && n.casState.Load() != casConsumed
}

// recoverInsertCAS resolves a fast-path insert whose epoch validation
// failed: a resize's all-stripes section overlapped the publication
// window, so the published node's fate is ambiguous. Under the key's
// stripe — which freezes the bucket array, the unzip state, and every
// competing writer on this chain — exactly one of three things is
// true:
//
//  1. casState == casConsumed: a stripe writer found and unlinked the
//     node, which means it was visible — the insert happened (and a
//     later delete/move removed it, as could happen to any insert).
//  2. The node is reachable from its home bucket in the CURRENT
//     array (pointer identity): the section that moved the epoch
//     captured it, or never touched its bucket. Adopt it by flipping
//     casSpeculative → casCommitted. Adopting cannot leave two nodes
//     for the key: every insert, lock-free or striped, publishes by
//     CAS against the head its absence walk started from, and a
//     striped one re-checks the prefix that appeared since
//     (publishLocked). Of two inserts of one key into one chain, the
//     later one therefore either walked over the earlier node or lost
//     its CAS and met it in the prefix, and captures move whole chains.
//  3. Neither: a capture walk read the bucket head before the CAS
//     landed and the superseding array dropped the node. Nothing
//     durable ever pointed at it — undo (roll the count back) and
//     have the caller redo the insert under the stripe.
//
// A blind "re-CAS the head back" undo would be unsound here: after an
// expand publish the node can be live in the NEW array while the old
// array — where the CAS landed — is already garbage, so only the
// reachability walk above can tell adoption from loss.
func (t *Table[K, V]) recoverInsertCAS(h uint64, n *node[K, V]) casInsertOutcome {
	s := t.lockHash(h)
	if n.casState.Load() == casConsumed || chainHas(t.ht.Load().bucketFor(h).Load(), n) {
		// No-op when consumed; the stripe excludes every other marker.
		n.casState.CompareAndSwap(casSpeculative, casCommitted)
		s.mu.Unlock()
		t.wc.casFastInserts.Add(1)
		return casInsertDone
	}
	s.mu.Unlock()
	t.wc.count.Add(-1)
	t.stats.casUndos.Add(1)
	t.stats.casFallbacks.Add(1)
	t.obsEvent(obs.EvCASUndo, 0, 0, 0)
	return casInsertFallback
}

// ---------------------------------------------------------------------
// Value-plane primitives: per-node read-modify-write that rides the
// stripes (Update) or no lock at all (CompareAndSwapValue).

// Update runs a read-modify-write for k under its writer stripe: fn
// receives the current value (zero if absent) and presence, and
// returns the value to store plus whether to store it. The whole
// sequence is atomic with respect to every other writer on the key.
// fn runs with the stripe held — it must be fast, must not block, and
// must not call operations on the same table. fn may run more than
// once: when it was shown k absent and a lock-free insert of k lands
// before its result is published, it runs again on that value, and
// only the last run's result counts. Returns the pre-existing value
// (if any) and whether fn's result was stored.
func (t *Table[K, V]) Update(k K, fn func(cur V, present bool) (V, bool)) (prev V, hadPrev, stored bool) {
	return t.UpdateHashed(t.hash(k), k, fn)
}

// UpdateHashed is Update with the key's table hash precomputed (see
// SetHashed).
func (t *Table[K, V]) UpdateHashed(h uint64, k K, fn func(cur V, present bool) (V, bool)) (prev V, hadPrev, stored bool) {
	return t.eng.updateHashed(h, k, fn)
}

// chainUpdateHashed is the chain engine's striped read-modify-write.
func (t *Table[K, V]) chainUpdateHashed(h uint64, k K, fn func(cur V, present bool) (V, bool)) (prev V, hadPrev, stored bool) {
	pr := t.opStart(h)
	s := t.lockHash(h)
	n, head := t.findHeadLocked(h, k)
	for {
		if n != nil {
			prev = *n.val.Load()
			hadPrev = true
		}
		v, store := fn(prev, hadPrev)
		if !store {
			s.mu.Unlock()
			t.opRecord(pr, h, obs.OpUpdate, obs.PathStriped, obs.OutNoop)
			return prev, hadPrev, false
		}
		if n != nil {
			n.val.Store(&v)
			s.mu.Unlock()
			t.opRecord(pr, h, obs.OpUpdate, obs.PathStriped, obs.OutReplaced)
			return prev, hadPrev, true
		}
		if n = t.insertLocked(h, k, &v, head); n == nil {
			break
		}
		// A lock-free insert of k landed after the walk: rerun fn on it.
	}
	s.mu.Unlock()
	t.maybeAutoResizeBackpressure()
	t.opRecord(pr, h, obs.OpUpdate, obs.PathStriped, obs.OutInserted)
	return prev, false, true
}

// CompareAndSwapValue publishes v for k only if match accepts the
// current value, with no lock at all: the node is located inside a
// read-side section, then the value pointer is compare-and-swapped.
// It returns whether the swap was published and whether the key was
// present. A nil match publishes unconditionally (a lock-free
// Replace). match may run multiple times (once per CAS attempt) and
// must be pure.
//
// Caveats of lock-freedom, for callers that mix primitives on the
// same keys: a swap racing a Delete may publish into a node that is
// already unlinked — the pair linearizes as update-then-delete and
// the swap still reports true; a swap racing a Move of the same key
// may land on the old node after the copy captured the value pointer,
// in which case the moved key keeps the pre-swap value; and
// CompareAndDelete's "removes exactly the examined entry" guarantee
// does not extend to values swapped in between its examine and its
// unlink. Resizes are immune by construction — they relink the same
// nodes, never copy them — so a successful swap is never lost to a
// concurrent expand or shrink.
func (t *Table[K, V]) CompareAndSwapValue(k K, match func(V) bool, v V) (swapped, present bool) {
	return t.CompareAndSwapValueHashed(t.hash(k), k, match, v)
}

// CompareAndSwapValueHashed is CompareAndSwapValue with the key's
// table hash precomputed (see SetHashed).
func (t *Table[K, V]) CompareAndSwapValueHashed(h uint64, k K, match func(V) bool, v V) (swapped, present bool) {
	return t.eng.compareAndSwapValueHashed(h, k, match, v)
}

// chainCompareAndSwapValueHashed is the chain engine's lock-free
// value publish. It is the one value-plane primitive the two engines
// implement differently: chain resizes relink the same nodes and
// never copy them, so the node located here survives any concurrent
// resize and the val-pointer CAS can run with no lock at all. The
// flat engine's copy-based migration breaks exactly that property,
// so its implementation rides the stripes instead (see flat.go).
func (t *Table[K, V]) chainCompareAndSwapValueHashed(h uint64, k K, match func(V) bool, v V) (swapped, present bool) {
	pr := t.opStart(h)
	var n *node[K, V]
	t.dom.Read(func() {
		ht := t.ht.Load()
		for c := ht.bucketFor(h).Load(); c != nil; c = c.next.Load() {
			if c.hash == h && c.key == k {
				n = c
				break
			}
		}
	})
	if n == nil {
		t.opRecord(pr, h, obs.OpValueCAS, obs.PathValueCAS, obs.OutMiss)
		return false, false
	}
	// The node outlives the section (Go GC); publishing into it after
	// a concurrent unlink is the documented update-then-delete race.
	for {
		p := n.val.Load()
		if match != nil && !match(*p) {
			t.opRecord(pr, h, obs.OpValueCAS, obs.PathValueCAS, obs.OutNoop)
			return false, true
		}
		if n.val.CompareAndSwap(p, &v) {
			t.stats.valueCASSwaps.Add(1)
			t.opRecord(pr, h, obs.OpValueCAS, obs.PathValueCAS, obs.OutReplaced)
			return true, true
		}
	}
}
