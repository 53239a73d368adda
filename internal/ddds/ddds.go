// Package ddds implements the "Dynamic Dynamic Data Structures"
// style resizable hash table the paper compares against. The paper
// characterizes DDDS by two reader-visible costs, both reproduced
// here:
//
//   - "Readers must check old and new data structures": during a
//     resize two tables exist; elements migrate one bucket at a time
//     from the old table to the current one, and lookups that miss in
//     the old table re-check the current table.
//
//   - "Readers have to wait until no concurrent resizes" / "slows
//     down the common case": every lookup validates a resize
//     generation stamp before and after the search and retries if a
//     resize started or finished mid-lookup — the common-case tax
//     (two extra shared loads and a branch) that keeps DDDS under
//     the relativistic table in the paper's baseline figure. While a
//     resize is in flight, lookups additionally announce themselves
//     on a shared reader counter (an atomic read-modify-write that
//     bounces between every reading core) so the resizer can
//     synchronize with them — which, combined with the double
//     search, is what collapses DDDS's resize curve.
//
// The migration protocol keeps lookups correct: an element is
// inserted into the current table before it is unlinked from the old
// one, and lookups search old before current, so (with sequentially
// consistent atomics) a lookup that misses the element in the old
// table must observe it in the current one.
package ddds

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rphash/internal/hashfn"
)

type node[K comparable, V any] struct {
	next atomic.Pointer[node[K, V]]
	hash uint64
	key  K
	val  atomic.Pointer[V]
}

type array[K comparable, V any] struct {
	mask uint64
	slot []atomic.Pointer[node[K, V]]
}

func newArray[K comparable, V any](n uint64) *array[K, V] {
	return &array[K, V]{mask: n - 1, slot: make([]atomic.Pointer[node[K, V]], n)}
}

func (a *array[K, V]) size() uint64 { return a.mask + 1 }

// Table is a DDDS-style resizable hash table.
type Table[K comparable, V any] struct {
	hash func(K) uint64

	cur atomic.Pointer[array[K, V]]
	old atomic.Pointer[array[K, V]] // non-nil only during a resize

	// gen counts resize events; odd while a resize is in progress.
	gen atomic.Uint64
	// readers is the shared announcement counter every lookup bumps —
	// the deliberate scalability bottleneck described above. The
	// resizer drains it before discarding the old table.
	readers atomic.Int64

	mu    sync.Mutex // writers and the resizer's per-batch critical sections
	count atomic.Int64

	// batch is how many buckets migrate per mutex acquisition.
	batch int

	// afterPublish, when set (tests only), runs inside Resize once the
	// new array is published, with mu held and nothing migrated yet.
	afterPublish func()
}

// New creates a table with the given hash and initial bucket count
// (rounded to a power of two).
func New[K comparable, V any](hash func(K) uint64, buckets uint64) *Table[K, V] {
	t := &Table[K, V]{hash: hash, batch: 16}
	t.cur.Store(newArray[K, V](hashfn.NextPowerOfTwo(max(buckets, 1))))
	return t
}

// NewUint64 builds a uint64-keyed table with the standard mix.
func NewUint64[V any](buckets uint64) *Table[uint64, V] {
	return New[uint64, V](func(k uint64) uint64 { return hashfn.Uint64(k, 0) }, buckets)
}

// getRetryLimit bounds the generation-stamp retry loop in Get. A
// resizer flipping gen back-to-back (continuous resizing of a small
// table) can otherwise invalidate every attempt and starve the reader
// outright — the retry tax is the point of the DDDS model, livelock
// is not.
const getRetryLimit = 8

// Get returns the value for k. See the package comment for the
// lookup protocol and its deliberate costs: in the common case the
// lookup validates the resize generation before and after the search
// (two extra shared loads — the "slows down the common case" tax);
// while a resize is in flight it additionally announces itself on
// the shared reader counter (an RMW that bounces between every
// reading core), searches both tables, and retries if the resize
// state moved — "readers have to wait until no concurrent resizes".
//
// The retry is bounded: after getRetryLimit invalidated attempts Get
// falls back to an announced slow path that performs one exact
// old-then-current search under the writer mutex — the literal
// "readers have to wait until no concurrent resizes". Under the mutex
// gen, old, cur, and the migration batches are all frozen (every
// transition happens inside a t.mu critical section), so the double
// search needs no stamp revalidation and the reader is guaranteed to
// make progress via mutex fairness. (Accepting an *unlocked* double
// search would not be sound here: the C original may do that only
// because its resizer drains announced readers before completing,
// a wait this port deliberately omits — see Resize.)
func (t *Table[K, V]) Get(k K) (V, bool) {
	h := t.hash(k)
	for attempt := 0; attempt < getRetryLimit; attempt++ {
		g := t.gen.Load()
		var v V
		var ok bool
		if g&1 == 0 {
			// Common case: no resize in progress at entry.
			v, ok = search(t.cur.Load(), h, k)
		} else {
			// Resize in progress: announce, then check old first,
			// then current (see migration ordering).
			t.readers.Add(1)
			if o := t.old.Load(); o != nil {
				v, ok = search(o, h, k)
			}
			if !ok {
				v, ok = search(t.cur.Load(), h, k)
			}
			t.readers.Add(-1)
		}
		if t.gen.Load() == g {
			return v, ok
		}
		// A resize started or finished mid-lookup: retry.
	}

	// Stamp validation kept failing (a resizer is flipping gen
	// back-to-back). Announce, then search exactly with the resize
	// state pinned by the writer mutex.
	t.readers.Add(1)
	defer t.readers.Add(-1)
	t.mu.Lock()
	defer t.mu.Unlock()
	var v V
	var ok bool
	if o := t.old.Load(); o != nil {
		v, ok = search(o, h, k)
	}
	if !ok {
		v, ok = search(t.cur.Load(), h, k)
	}
	return v, ok
}

func search[K comparable, V any](a *array[K, V], h uint64, k K) (V, bool) {
	for n := a.slot[h&a.mask].Load(); n != nil; n = n.next.Load() {
		if n.hash == h && n.key == k {
			return *n.val.Load(), true
		}
	}
	var zero V
	return zero, false
}

// Set upserts k and reports whether it inserted. During a resize the
// new value always lands in the current table; any old-table copy is
// removed after the current-table copy is visible.
func (t *Table[K, V]) Set(k K, v V) bool {
	h := t.hash(k)
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.cur.Load()
	if n := findIn(cur, h, k); n != nil {
		n.val.Store(&v)
		return false
	}
	if o := t.old.Load(); o != nil {
		if n := findIn(o, h, k); n != nil {
			// Replace: publish in current first, then unlink from old
			// so lookups (old-then-current) never miss it.
			insert(cur, h, k, &v)
			unlink(o, h, k)
			return false
		}
	}
	insert(cur, h, k, &v)
	t.count.Add(1)
	return true
}

// Delete removes k from both tables, reporting whether it was present.
func (t *Table[K, V]) Delete(k K) bool {
	h := t.hash(k)
	t.mu.Lock()
	defer t.mu.Unlock()
	found := unlink(t.cur.Load(), h, k)
	if o := t.old.Load(); o != nil {
		if unlink(o, h, k) {
			found = true
		}
	}
	if found {
		t.count.Add(-1)
	}
	return found
}

func findIn[K comparable, V any](a *array[K, V], h uint64, k K) *node[K, V] {
	for n := a.slot[h&a.mask].Load(); n != nil; n = n.next.Load() {
		if n.hash == h && n.key == k {
			return n
		}
	}
	return nil
}

func insert[K comparable, V any](a *array[K, V], h uint64, k K, v *V) {
	n := &node[K, V]{hash: h, key: k}
	n.val.Store(v)
	slot := &a.slot[h&a.mask]
	n.next.Store(slot.Load())
	slot.Store(n)
}

func unlink[K comparable, V any](a *array[K, V], h uint64, k K) bool {
	slot := &a.slot[h&a.mask]
	var prev *node[K, V]
	for n := slot.Load(); n != nil; n = n.next.Load() {
		if n.hash == h && n.key == k {
			if prev == nil {
				slot.Store(n.next.Load())
			} else {
				prev.next.Store(n.next.Load())
			}
			return true
		}
		prev = n
	}
	return false
}

// Len returns the element count.
func (t *Table[K, V]) Len() int { return int(t.count.Load()) }

// Buckets returns the current (target) table's bucket count.
func (t *Table[K, V]) Buckets() int { return int(t.cur.Load().size()) }

// Resizing reports whether a migration is in flight.
func (t *Table[K, V]) Resizing() bool { return t.gen.Load()&1 == 1 }

// Resize migrates the table to n buckets (rounded to a power of two).
// Migration is incremental — `batch` buckets per writer-lock
// acquisition — so writers interleave with it, while readers pay the
// double-search-and-retry cost for the duration.
func (t *Table[K, V]) Resize(n uint64) {
	n = hashfn.NextPowerOfTwo(max(n, 1))
	t.mu.Lock()
	cur := t.cur.Load()
	if cur.size() == n || t.old.Load() != nil {
		// Already the right size, or another resize is in flight
		// (the mutex means that can only be a re-entrant misuse;
		// refuse quietly).
		t.mu.Unlock()
		return
	}
	fresh := newArray[K, V](n)
	// Publication order, against a Get that loads gen, then old, then
	// cur, then gen again. old first: a Get that sees the odd stamp
	// finds the complete old array. The stamp before cur: a Get that
	// loads the fresh, still-empty array re-reads a stamp that moved
	// and retries. (Stamping first would reopen the hole on the odd
	// side: old loaded still nil, cur loaded already fresh.)
	t.old.Store(cur)
	t.gen.Add(1) // odd: resize in progress
	t.cur.Store(fresh)
	if t.afterPublish != nil {
		t.afterPublish()
	}
	t.mu.Unlock()

	// Migrate bucket ranges under short critical sections.
	size := int(cur.size())
	for lo := 0; lo < size; lo += t.batch {
		hi := min(lo+t.batch, size)
		t.mu.Lock()
		for i := lo; i < hi; i++ {
			for {
				n := cur.slot[i].Load()
				if n == nil {
					break
				}
				// Publish in the new table before unlinking from the
				// old so old-then-current lookups cannot miss it.
				// (A writer may have already moved or deleted this
				// key; current wins.)
				if findIn(fresh, n.hash, n.key) == nil {
					insert(fresh, n.hash, n.key, n.val.Load())
				}
				cur.slot[i].Store(n.next.Load())
			}
		}
		t.mu.Unlock()
		// The batch boundary exists so writers and readers can
		// interleave with the migration; on GOMAXPROCS=1 the mutex
		// release alone never reschedules, so yield explicitly (the C
		// original's resizer is a separate thread the OS preempts).
		runtime.Gosched()
	}

	// old before the stamp: a Get that still sees the odd stamp but
	// loads old == nil searches cur, which now holds every element.
	t.mu.Lock()
	t.old.Store(nil)
	t.gen.Add(1) // even: resize complete
	t.mu.Unlock()

	// In C, DDDS would now block until the announced-reader count
	// drained before freeing the retired table. Go's GC makes the
	// free safe without waiting (readers that straddled the flip
	// retry via the gen check), so the announcement counter's only
	// remaining role is its read-side cost — which is the point.
}

// Range iterates elements of both tables (deduplicating by key is the
// caller's concern only during a resize; the migration protocol keeps
// a key in at most one table from a single atomically-read chain's
// perspective, but a concurrent Range may see a migrating key twice).
func (t *Table[K, V]) Range(fn func(K, V) bool) {
	seen := make(map[K]struct{})
	emit := func(a *array[K, V]) bool {
		for i := range a.slot {
			for n := a.slot[i].Load(); n != nil; n = n.next.Load() {
				if _, dup := seen[n.key]; dup {
					continue
				}
				seen[n.key] = struct{}{}
				if !fn(n.key, *n.val.Load()) {
					return false
				}
			}
		}
		return true
	}
	if o := t.old.Load(); o != nil {
		if !emit(o) {
			return
		}
	}
	emit(t.cur.Load())
}

// Close releases resources (none; present for the shared contract).
func (t *Table[K, V]) Close() {}
