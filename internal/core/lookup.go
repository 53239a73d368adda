package core

import "rphash/internal/rcu"

// Get returns the value for key k. It is completely
// synchronization-free on the read side: no locks, no atomic
// read-modify-writes, no retries — a pooled delimited reader plus a
// chain walk. Safe to call concurrently with any writer operation,
// including resizes.
//
// Hot loops should prefer a ReadHandle, which avoids the pooled
// reader round-trip.
func (t *Table[K, V]) Get(k K) (V, bool) {
	var v V
	var ok bool
	t.dom.Read(func() {
		v, ok = t.lookup(k)
	})
	return v, ok
}

// Contains reports whether k is present.
func (t *Table[K, V]) Contains(k K) bool {
	_, ok := t.Get(k)
	return ok
}

// lookup walks the chain for k. The caller must be inside a read-side
// critical section of t's domain.
func (t *Table[K, V]) lookup(k K) (V, bool) {
	return t.lookupHashed(t.hash(k), k)
}

// LookupInReader performs a raw lookup for k with its table hash h
// already computed. The calling goroutine must be inside a read-side
// critical section of the table's Domain, and h must equal the
// table's hash of k. It is the building block for multi-table
// front-ends (internal/shard) whose read handles span several tables
// sharing one domain: the front-end hashes once, routes, and looks up
// without a second reader registration or hash computation.
func (t *Table[K, V]) LookupInReader(h uint64, k K) (V, bool) {
	return t.lookupHashed(h, k)
}

// lookupHashed is lookup with the hash precomputed, dispatched to the
// table's engine.
func (t *Table[K, V]) lookupHashed(h uint64, k K) (V, bool) {
	return t.eng.lookupHashed(h, k)
}

// chainLookupHashed is the chain engine's lookup.
func (t *Table[K, V]) chainLookupHashed(h uint64, k K) (V, bool) {
	ht := t.ht.Load()
	for n := ht.bucketFor(h).Load(); n != nil; n = n.next.Load() {
		// During resizes chains are imprecise supersets: foreign
		// nodes (same parent bucket, different child) may appear.
		// Comparing hash then key filters them, exactly as the paper
		// prescribes.
		if n.hash == h && n.key == k {
			return *n.val.Load(), true
		}
	}
	var zero V
	return zero, false
}

// ReadHandle is a per-goroutine lookup handle backed by a registered
// reader. It is not safe for concurrent use; create one per reading
// goroutine and Close it when done.
type ReadHandle[K comparable, V any] struct {
	t *Table[K, V]
	r *rcu.Reader
}

// NewReadHandle registers a reader for lookup hot paths.
func (t *Table[K, V]) NewReadHandle() *ReadHandle[K, V] {
	return &ReadHandle[K, V]{t: t, r: t.dom.Register()}
}

// Get is the hot-path lookup: two reader-local atomic stores around a
// chain walk.
func (h *ReadHandle[K, V]) Get(k K) (V, bool) {
	h.r.Lock()
	v, ok := h.t.lookup(k)
	h.r.Unlock()
	return v, ok
}

// Contains reports presence via the handle's reader.
func (h *ReadHandle[K, V]) Contains(k K) bool {
	_, ok := h.Get(k)
	return ok
}

// Close deregisters the handle's reader.
func (h *ReadHandle[K, V]) Close() { h.r.Close() }
