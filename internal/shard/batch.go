// Batched operations over the sharded map. A per-key Get pays a hash,
// a shard dispatch, and a reader-section entry/exit; a per-key Set
// additionally locks its key's writer stripe. When callers arrive
// with many keys at once the map can do markedly better: hash every
// key once, group keys by shard with a reusable per-call scratch (no
// allocation after warm-up), then enter ONE reader section per
// touched shard for reads and hand each shard its whole group for
// writes — the table applies the group in sorted-stripe order,
// locking each touched stripe once (core.Table.SetBatchHashed). For
// a B-key batch over S shards with E effective stripes per shard,
// that replaces B section entries with at most min(B, S) and B lock
// round-trips with at most min(B, S·E).
package shard

// batchScratch is the reusable per-call workspace for batch
// operations: hashes, the per-shard index lists (head/next form a
// linked list of batch positions per shard), and reorder buffers for
// the write paths. One scratch serves one call; concurrent calls each
// take their own from the pool.
type batchScratch[K comparable, V any] struct {
	hs      []uint64
	head    []int32 // per shard: first batch index, -1 = none
	next    []int32 // per batch index: next index on the same shard
	touched []int32 // shard indices with at least one key
	ks      []K     // reordered keys, grouped by shard (write paths)
	vs      []V     // reordered values (SetBatch)
	ohs     []uint64
}

// scratch returns a workspace sized for n keys.
func (m *Map[K, V]) scratch(n int) *batchScratch[K, V] {
	sc, _ := m.scratchPool.Get().(*batchScratch[K, V])
	if sc == nil {
		sc = &batchScratch[K, V]{head: make([]int32, len(m.shards))}
		for i := range sc.head {
			sc.head[i] = -1
		}
	}
	if cap(sc.hs) < n {
		sc.hs = make([]uint64, n)
	}
	if cap(sc.next) < n {
		sc.next = make([]int32, n)
	}
	return sc
}

// release returns a workspace to the pool. Key/value reorder buffers
// are cleared first so pooled scratch never pins caller data.
func (m *Map[K, V]) release(sc *batchScratch[K, V]) {
	clear(sc.ks)
	clear(sc.vs)
	sc.touched = sc.touched[:0]
	m.scratchPool.Put(sc)
}

// group builds the per-shard linked lists for hs[:n]. Iterating in
// reverse and prepending leaves each shard's list in ascending batch
// order, which the write paths rely on for last-write-wins semantics
// on duplicate keys. head entries are reset by ungroup.
func (m *Map[K, V]) group(sc *batchScratch[K, V], hs []uint64) {
	next, head := sc.next[:len(hs)], sc.head
	for i := len(hs) - 1; i >= 0; i-- {
		s := int32(hs[i] >> m.shift)
		if head[s] < 0 {
			sc.touched = append(sc.touched, s)
		}
		next[i] = head[s]
		head[s] = int32(i)
	}
}

// ungroup resets the touched head entries so the scratch can be
// pooled without clearing the whole (shard-count-sized) head array.
func (sc *batchScratch[K, V]) ungroup() {
	for _, s := range sc.touched {
		sc.head[s] = -1
	}
	sc.touched = sc.touched[:0]
}

// GetBatch looks up ks[i] into vals[i] and oks[i] for every i. Keys
// are hashed once, grouped by shard, and each touched shard's
// lookups run inside one read-side critical section — at most
// NumShards section entries for the whole batch, against len(ks) for
// individual Gets. len(vals) and len(oks) must equal len(ks); vals[i]
// is the zero value where oks[i] is false.
//
// Per-key semantics are exactly Get's. The batch is not a snapshot:
// concurrent writers may land between shard groups (and between two
// keys of one group).
func (m *Map[K, V]) GetBatch(ks []K, vals []V, oks []bool) {
	if len(vals) != len(ks) || len(oks) != len(ks) {
		panic("shard: GetBatch output length mismatch")
	}
	if len(ks) == 0 {
		return
	}
	sc := m.scratch(len(ks))
	hs := sc.hs[:len(ks)]
	for i := range ks {
		hs[i] = m.hash(ks[i])
	}
	m.getBatchGrouped(sc, hs, ks, vals, oks)
	m.release(sc)
}

// GetBatchHashed is GetBatch with the keys' hashes precomputed; hs[i]
// must equal the map's hash of ks[i]. Front-ends that hash once
// (internal/cache) pass the hashes through.
func (m *Map[K, V]) GetBatchHashed(hs []uint64, ks []K, vals []V, oks []bool) {
	if len(hs) != len(ks) || len(vals) != len(ks) || len(oks) != len(ks) {
		panic("shard: GetBatchHashed length mismatch")
	}
	if len(ks) == 0 {
		return
	}
	sc := m.scratch(len(ks))
	m.getBatchGrouped(sc, hs, ks, vals, oks)
	m.release(sc)
}

// getBatchGrouped is the shared read path: group, then one reader
// section per touched shard. The pooled reader is acquired once for
// the whole batch; each shard group brackets its lookups with
// Lock/Unlock so no section outlives its group. The section count is
// accumulated locally and folded into the striped counter once per
// batch, after the last section — the hot loop performs no shared
// atomic read-modify-writes.
func (m *Map[K, V]) getBatchGrouped(sc *batchScratch[K, V], hs []uint64, ks []K, vals []V, oks []bool) {
	m.group(sc, hs)
	r := m.dom.AcquireReader()
	sections := uint64(0)
	for _, s := range sc.touched {
		t := m.shards[s]
		r.Lock()
		sections++
		for i := sc.head[s]; i >= 0; i = sc.next[i] {
			vals[i], oks[i] = t.LookupInReader(hs[i], ks[i])
		}
		r.Unlock()
	}
	m.dom.ReleaseReader(r)
	m.batchSections.AddN(int(hs[0]), sections)
	sc.ungroup()
}

// BatchSections returns the cumulative number of read-side critical
// sections entered by GetBatch/GetBatchHashed. It is an observability
// and test hook: a B-key batch must account for at most
// min(B, NumShards) sections, which is the amortization the batch
// path exists to provide.
func (m *Map[K, V]) BatchSections() uint64 { return m.batchSections.Total() }

// SetBatch upserts every (ks[i], vs[i]) pair, returning how many keys
// were newly inserted. Keys are hashed once and grouped by shard;
// each shard applies its group with sorted-stripe locking
// (core.Table.SetBatchHashed) — every touched writer stripe locked
// once for all of its keys — so concurrent writers on other stripes
// keep flowing while the batch lands. Groups commit in shard order —
// the batch is not atomic across shards — and duplicate keys within
// the batch apply in order (last value wins).
func (m *Map[K, V]) SetBatch(ks []K, vs []V) (inserted int) {
	if len(vs) != len(ks) {
		panic("shard: SetBatch length mismatch")
	}
	if len(ks) == 0 {
		return 0
	}
	sc := m.scratch(len(ks))
	hs := sc.hs[:len(ks)]
	for i := range ks {
		hs[i] = m.hash(ks[i])
	}
	m.group(sc, hs)
	// Guard each reorder buffer independently: a pooled scratch may
	// have been grown by DeleteBatch, which sizes ks/ohs but not vs.
	if cap(sc.ks) < len(ks) {
		sc.ks = make([]K, len(ks))
	}
	if cap(sc.vs) < len(ks) {
		sc.vs = make([]V, len(ks))
	}
	if cap(sc.ohs) < len(ks) {
		sc.ohs = make([]uint64, len(ks))
	}
	ord, ovs, ohs := sc.ks[:len(ks)], sc.vs[:len(ks)], sc.ohs[:len(ks)]
	for _, s := range sc.touched {
		n := 0
		for i := sc.head[s]; i >= 0; i = sc.next[i] {
			ohs[n], ord[n], ovs[n] = hs[i], ks[i], vs[i]
			n++
		}
		inserted += m.shards[s].SetBatchHashed(ohs[:n], ord[:n], ovs[:n])
	}
	sc.ungroup()
	m.release(sc)
	return inserted
}

// DeleteBatch removes every key in ks, returning how many were
// present. Grouping and stripe-lock amortization match SetBatch.
func (m *Map[K, V]) DeleteBatch(ks []K) (removed int) {
	if len(ks) == 0 {
		return 0
	}
	sc := m.scratch(len(ks))
	hs := sc.hs[:len(ks)]
	for i := range ks {
		hs[i] = m.hash(ks[i])
	}
	m.group(sc, hs)
	if cap(sc.ks) < len(ks) {
		sc.ks = make([]K, len(ks))
	}
	if cap(sc.ohs) < len(ks) {
		sc.ohs = make([]uint64, len(ks))
	}
	ord, ohs := sc.ks[:len(ks)], sc.ohs[:len(ks)]
	for _, s := range sc.touched {
		n := 0
		for i := sc.head[s]; i >= 0; i = sc.next[i] {
			ohs[n], ord[n] = hs[i], ks[i]
			n++
		}
		removed += m.shards[s].DeleteBatchHashed(ohs[:n], ord[:n])
	}
	sc.ungroup()
	m.release(sc)
	return removed
}

// RangeChunked calls fn for every element until fn returns false,
// walking shards in order with core.Table.RangeChunked semantics per
// shard: bounded reader sections, fn invoked outside them, possible
// repeats (never skips) if a shard shrinks mid-traversal. There is no
// cross-shard snapshot.
func (m *Map[K, V]) RangeChunked(chunk int, fn func(K, V) bool) {
	cont := true
	for _, s := range m.shards {
		if !cont {
			return
		}
		s.RangeChunked(chunk, func(k K, v V) bool {
			cont = fn(k, v)
			return cont
		})
	}
}
