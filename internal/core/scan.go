package core

import "math/bits"

// unitView is one engine's layout snapshot, taken and used inside a
// single read-side critical section, as a power-of-two number of
// traversal units (chain: buckets; flat: migration units, which are
// the groups outside a migration). Unit u holds exactly the elements
// whose hash has u in its low bits. Range, RangeChunked and ScanFrom
// are written once on it.
type unitView[K comparable, V any] interface {
	// scanMask is the unit count minus one.
	scanMask() uint64
	// scanUnit calls fn for every element of unit u, each exactly
	// once whatever the resize progress, until fn returns false.
	scanUnit(u uint64, fn func(K, V) bool) bool
}

// The chain engine's units are its buckets.
func (ht *buckets[K, V]) scanMask() uint64 { return ht.mask }

func (ht *buckets[K, V]) scanUnit(u uint64, fn func(K, V) bool) bool {
	for n := ht.slot[u].Load(); n != nil; n = n.next.Load() {
		if n.hash&ht.mask != u {
			continue // foreign node mid-unzip; its home bucket reports it
		}
		if !fn(n.key, *n.val.Load()) {
			return false
		}
	}
	return true
}

// nextUnit advances a multi-section traversal cursor by one unit in
// bit-reversed order (Redis SCAN's). Read as a binary fraction, the
// reversed cursor only moves forward whatever the unit count: doubling
// the table keeps its position, halving it rounds the position down to
// the start of the coarser unit. So a traversal that leaves the reader
// section between units may repeat elements across a shrink but never
// skips one, and reaches the end (cursor 0) under any resizing.
func nextUnit(cursor, mask uint64) uint64 {
	return bits.Reverse64(bits.Reverse64(cursor|^mask) + 1)
}

// Range calls fn for every element until fn returns false. The whole
// traversal — fn included — runs inside one read-side critical
// section, so it holds up grace periods for its full duration: keep
// fn short and non-blocking, or use RangeChunked, which collects
// bounded chunks per section and runs fn outside them.
//
// Semantics under concurrency: an element present for the entire
// traversal is visited at least once; elements inserted or deleted
// concurrently may or may not appear. While an expansion is
// unzipping, chains transiently contain foreign nodes; Range filters
// them by home bucket so no element is visited twice (a key being
// Moved is two distinct elements for this purpose and may appear
// under both keys).
func (t *Table[K, V]) Range(fn func(K, V) bool) {
	t.dom.Read(func() {
		v := t.eng.snapshot()
		for u, mask := uint64(0), v.scanMask(); u <= mask; u++ {
			if !v.scanUnit(u, fn) {
				return
			}
		}
	})
}

// Keys returns a snapshot of the keys (order unspecified).
func (t *Table[K, V]) Keys() []K {
	out := make([]K, 0, t.Len())
	t.Range(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// DefaultRangeChunk is the element-count target RangeChunked uses
// when the caller passes chunk <= 0.
const DefaultRangeChunk = 512

// rangeChunkUnits bounds a RangeChunked section on a sparse table:
// it ends after this many units per wanted element even if the chunk
// is not full, so no section is proportional to the bucket array.
const rangeChunkUnits = 8

// RangeChunked calls fn for every element until fn returns false,
// like Range, but exits the read-side critical section between
// chunks of roughly `chunk` elements (chunk <= 0 selects
// DefaultRangeChunk). Each chunk collects whole buckets inside one
// reader section and then invokes fn OUTSIDE the section, so:
//
//   - a huge traversal never extends a grace period beyond one
//     chunk's collection time — writers' deferred reclamation keeps
//     flowing while fn runs — and
//   - fn may block, take locks, or call back into the table without
//     holding up memory reclamation, none of which is safe inside
//     Range's single section.
//
// The price is weaker iteration semantics under concurrent resizing:
// progress is a cursor over bucket indexes (see nextUnit), and a
// shrink between chunks makes the traversal repeat the elements of
// the bucket the cursor was in. It never skips: elements present for
// the whole traversal are visited at least once, and exactly once
// with no concurrent resize; concurrently inserted or deleted
// elements may or may not appear. Values are copied at collection
// time and may be stale by the time fn observes them.
func (t *Table[K, V]) RangeChunked(chunk int, fn func(K, V) bool) {
	if chunk <= 0 {
		chunk = DefaultRangeChunk
	}
	keys := make([]K, 0, chunk)
	vals := make([]V, 0, chunk)
	collect := func(k K, v V) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	}
	var cursor uint64
	for {
		keys, vals = keys[:0], vals[:0]
		t.dom.Read(func() {
			v := t.eng.snapshot()
			mask := v.scanMask()
			for units := rangeChunkUnits * chunk; units > 0 && len(keys) < chunk; units-- {
				v.scanUnit(cursor&mask, collect)
				if cursor = nextUnit(cursor, mask); cursor == 0 {
					return
				}
			}
		})
		for i := range keys {
			if !fn(keys[i], vals[i]) {
				return
			}
		}
		if cursor == 0 {
			return
		}
	}
}

// ScanFrom is the bounded, resumable traversal that maintenance
// passes (eviction sampling, expiry sweeping) are built on. It runs
// fn, inside ONE read-side critical section, over the elements of at
// most maxUnits buckets (at least one, at most all), starting at
// bucket cursor mod the bucket count and wrapping, and returns the
// cursor to pass to the next call. A call costs what maxUnits and fn
// allow, never the table's size. Keep fn short and non-blocking, as
// for Range.
//
// fn returning false stops the scan at once. The returned cursor then
// points at the bucket the scan stopped in, which the next call
// visits again in full rather than skipping the rest of it — unless
// it was this call's first bucket, which is passed over so that every
// call makes progress.
//
// Any value is a valid cursor (a hash makes a random start). Buckets
// are visited in nextUnit's order, so a cursor stays meaningful across
// resizes: over successive calls every element that stays in the
// table is visited at least once per cycle, exactly once if no resize
// intervenes and fn never stops a scan.
func (t *Table[K, V]) ScanFrom(cursor uint64, maxUnits int, fn func(K, V) bool) (next uint64) {
	t.dom.Read(func() {
		v := t.eng.snapshot()
		mask := v.scanMask()
		next = cursor & mask
		for left := min(uint64(max(maxUnits, 1)), mask+1); left > 0; left-- {
			u := next
			next = nextUnit(u, mask)
			if !v.scanUnit(u, fn) {
				if u != cursor&mask {
					next = u
				}
				return
			}
		}
	})
	return next
}
