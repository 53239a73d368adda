package core

// Batched operations. The read-side win of the paper's design is a
// cheap — but not free — delimited reader section per lookup: two
// reader-local atomic stores, plus (for pooled readers) a pool
// round-trip. Callers that arrive with many keys at once (memcached
// multi-get, cache warm-up, bulk loads) can amortize that entry/exit
// cost over the whole group: GetBatch performs every lookup inside
// ONE reader section, and the batched writers visit the table's
// writer stripes in sorted order, locking each touched stripe once
// for all of its keys instead of once per key.
//
// Holding one reader section across a batch is safe at any batch
// size — reader sections never block writers — but it does extend the
// current grace period by the batch's duration, delaying whatever
// waits on it (a resize step, a flat-engine cell reuse). Batches of a
// few hundred keys are microseconds; for unbounded traversals use
// RangeChunked, which exits the section between chunks.

import "slices"

// GetBatch looks up ks[i] into vals[i] and oks[i] for every i, all
// inside a single read-side critical section. len(vals) and len(oks)
// must equal len(ks); vals[i] is the zero value where oks[i] is
// false. The per-key semantics are exactly Get's; keys are not
// snapshotted together (a concurrent writer may land between two
// lookups of the same section).
func (t *Table[K, V]) GetBatch(ks []K, vals []V, oks []bool) {
	if len(vals) != len(ks) || len(oks) != len(ks) {
		panic("core: GetBatch output length mismatch")
	}
	t.dom.Read(func() {
		for i := range ks {
			vals[i], oks[i] = t.lookupHashed(t.hash(ks[i]), ks[i])
		}
	})
}

// GetBatchHashed is GetBatch with the keys' table hashes precomputed;
// hs[i] must equal the table's hash of ks[i]. Multi-table front-ends
// (internal/shard) hash once to route and pass the hashes through.
func (t *Table[K, V]) GetBatchHashed(hs []uint64, ks []K, vals []V, oks []bool) {
	if len(hs) != len(ks) || len(vals) != len(ks) || len(oks) != len(ks) {
		panic("core: GetBatchHashed length mismatch")
	}
	t.dom.Read(func() {
		for i := range ks {
			vals[i], oks[i] = t.lookupHashed(hs[i], ks[i])
		}
	})
}

// batchScratch is the pooled workspace of the batched write paths:
// ord holds (stripe, batch-index) pairs packed into one uint64 each,
// so a plain sort groups the batch by stripe while preserving the
// original order within a stripe (the packed index breaks ties).
type batchScratch struct {
	ord []uint64
}

// stripeOrder returns a pooled workspace whose ord slice lists the
// batch indices of hs grouped by stripe (ascending) and, within a
// stripe, in original batch order — the order the write loops visit
// so each touched stripe is locked once and duplicates keep
// last-write-wins semantics. The stripe assignment uses a snapshot of
// the stripe mask; if a resize boundary moves the mask mid-batch the
// apply loop just re-locks more often (the per-op lock is always
// taken under the live mask).
func (t *Table[K, V]) stripeOrder(hs []uint64) *batchScratch {
	sc, _ := t.batchPool.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	if cap(sc.ord) < len(hs) {
		sc.ord = make([]uint64, len(hs))
	}
	ord := sc.ord[:len(hs)]
	m := t.stripes.mask.Load()
	for i, h := range hs {
		ord[i] = (h&m)<<32 | uint64(i)
	}
	slices.Sort(ord)
	sc.ord = ord
	return sc
}

// batchWriter holds one stripe at a time across a stripe-ordered
// batch, re-locking only when the next key maps elsewhere. At most
// one stripe is ever held, so batches are deadlock-free against
// point writers, Move, and resizes regardless of interleaving.
type batchWriter[K comparable, V any] struct {
	t    *Table[K, V]
	held *stripeLock
	slot uint64
	mask uint64
}

// acquire ensures the stripe covering h is held. While a stripe is
// held the mask cannot move (it changes only under every stripe), so
// the cached mask stays valid until release.
func (w *batchWriter[K, V]) acquire(h uint64) {
	if w.held != nil {
		if h&w.mask == w.slot {
			return
		}
		w.held.mu.Unlock()
		w.held = nil
	}
	for {
		m := w.t.stripes.mask.Load()
		s := &w.t.stripes.locks[h&m]
		s.lockContended(w.t.stripeWaitHist(), int(h&m))
		if w.t.stripes.mask.Load() == m {
			w.held, w.slot, w.mask = s, h&m, m
			return
		}
		s.mu.Unlock()
	}
}

func (w *batchWriter[K, V]) release() {
	if w.held != nil {
		w.held.mu.Unlock()
		w.held = nil
	}
}

// SetBatch upserts every (ks[i], vs[i]) pair, returning how many keys
// were newly inserted. The batch is grouped by writer stripe and each
// touched stripe is locked once for all of its keys (sorted-stripe
// locking): a B-key batch over a table with E effective stripes costs
// at most min(B, E) lock acquisitions. Duplicate keys in the batch
// apply in order (the last value wins). Writers on other stripes
// proceed in parallel; the batch is not atomic — point writes and
// readers may interleave between stripe groups.
func (t *Table[K, V]) SetBatch(ks []K, vs []V) (inserted int) {
	if len(vs) != len(ks) {
		panic("core: SetBatch length mismatch")
	}
	if len(ks) == 0 {
		return 0
	}
	hs := make([]uint64, len(ks))
	for i := range ks {
		hs[i] = t.hash(ks[i])
	}
	return t.SetBatchHashed(hs, ks, vs)
}

// SetBatchHashed is SetBatch with the keys' table hashes precomputed
// (see GetBatchHashed).
func (t *Table[K, V]) SetBatchHashed(hs []uint64, ks []K, vs []V) (inserted int) {
	if len(hs) != len(ks) || len(vs) != len(ks) {
		panic("core: SetBatchHashed length mismatch")
	}
	if len(ks) == 0 {
		return 0
	}
	return t.eng.setBatchHashed(hs, ks, vs)
}

// chainSetBatchHashed is the chain engine's batched upsert; lengths
// are validated by the dispatcher.
func (t *Table[K, V]) chainSetBatchHashed(hs []uint64, ks []K, vs []V) (inserted int) {
	sc := t.stripeOrder(hs)
	w := batchWriter[K, V]{t: t}
	for _, packed := range sc.ord {
		i := int(packed & 0xffffffff)
		w.acquire(hs[i])
		// Copy before boxing either way: the box must not alias the
		// caller's slice, which it may reuse after the call.
		v := vs[i]
		n, head := t.findHeadLocked(hs[i], ks[i])
		if n == nil {
			n = t.insertLocked(hs[i], ks[i], &v, head)
		}
		if n != nil {
			n.val.Store(&v)
			continue
		}
		inserted++
	}
	w.release()
	t.batchPool.Put(sc)
	if inserted > 0 {
		t.maybeAutoResizeBackpressure()
	}
	return inserted
}

// DeleteBatch removes every key in ks, returning how many were
// present. Stripe grouping and lock amortization match SetBatch.
func (t *Table[K, V]) DeleteBatch(ks []K) (removed int) {
	if len(ks) == 0 {
		return 0
	}
	hs := make([]uint64, len(ks))
	for i := range ks {
		hs[i] = t.hash(ks[i])
	}
	return t.DeleteBatchHashed(hs, ks)
}

// DeleteBatchHashed is DeleteBatch with the keys' table hashes
// precomputed (see GetBatchHashed).
func (t *Table[K, V]) DeleteBatchHashed(hs []uint64, ks []K) (removed int) {
	if len(hs) != len(ks) {
		panic("core: DeleteBatchHashed length mismatch")
	}
	if len(ks) == 0 {
		return 0
	}
	return t.eng.deleteBatchHashed(hs, ks)
}

// chainDeleteBatchHashed is the chain engine's batched delete.
func (t *Table[K, V]) chainDeleteBatchHashed(hs []uint64, ks []K) (removed int) {
	sc := t.stripeOrder(hs)
	w := batchWriter[K, V]{t: t}
	for _, packed := range sc.ord {
		i := int(packed & 0xffffffff)
		w.acquire(hs[i])
		if _, ok := t.unlinkLocked(hs[i], ks[i], nil); ok {
			removed++
		}
	}
	w.release()
	t.batchPool.Put(sc)
	if removed > 0 {
		t.maybeAutoResize()
	}
	return removed
}
