package core

// The "flat" engine: cache-line-contiguous bucket storage behind the
// engine seam (engine.go), selected with WithEngine(EngineFlat).
//
// Layout. Each bucket is one flatGroup: a packed word of eight 8-bit
// hash tags, a pending-cleanup mask, eight cells, and an overflow
// chain head for spill. A cell holds its key, its value inline, and
// the pointer readers load the value through — which points at the
// cell's own inline slot until the value is first replaced. A lookup
// loads the tag word once, SWAR-scans it for candidate cells, and
// touches only cells whose tag byte matches — the common miss costs
// one cache line, the common hit two (tag word, then the cell with
// its value), with no pointer chase off the group. The chain engine's
// lookup walks a linked list whose nodes are scattered heap
// allocations; this layout is the classic flat alternative (Maier et
// al.'s folklore baseline, Malakhov's per-bucket tables) expressed
// relativistically.
//
// Publication protocol. Cells are published and retired exclusively
// through the tag word:
//
//   - Insert (stripe held, cell unpublished with no cleanup pending):
//     write the cell's key and inline value plainly, point val at the
//     inline slot, then atomically store the tag word with the cell's
//     tag byte set. The tag store is the release edge; a reader that
//     observes the tag observes the complete cell. An insert
//     allocates nothing.
//   - Replace (stripe held): store a fresh heap box into val, so a
//     reader sees the old value or the new one, never a torn one. The
//     first replace after an insert displaces the inline value, which
//     readers that loaded val earlier may still be reading: it sets
//     the cell's clear bit and defers zeroing the slot past a grace
//     period (so the displaced value can be collected). Later
//     replaces go box to box and defer nothing.
//   - Delete (stripe held): atomically store the tag word with the
//     byte cleared, set the cell's retiring bit, and defer the
//     cleanup (val and inline release, retiring clear) past a grace
//     period. Readers that saw the tag may still be dereferencing
//     the cell; the retiring bit keeps inserts from rewriting its
//     key and inline slot until the grace period proves those readers
//     gone. Each deferred bit clear is itself the release edge a later
//     insert's acquire load pairs with, so cell reuse is ordered
//     after every reader that could see the old contents, and a
//     pending inline clear can never zero a reused cell's new value.
//
// Readers therefore never synchronize: one atomic tag load, plain
// cell reads, an atomic value-pointer load — the same read-side cost
// model as the chain engine, on contiguous memory.
//
// Value plane. Every write — including Replace and
// CompareAndSwapValue — takes the key's stripe. This is the one
// deliberate semantic difference from the chain engine: chain resizes
// relink the same nodes and never copy them, so a lock-free value CAS
// can never be lost to a resize; the flat engine's COPY-based
// migration (flat_resize.go) copies values into new cells, and a
// lock-free store into an already-copied cell would be silently
// lost — a lost update, not a stale read. Riding the stripes
// serializes value publishes with migration and keeps linearizability.
//
// Overflow spill reuses the chain engine's node type, but every
// mutation of a spill chain happens under the stripe (the flat engine
// has no CAS insert fast path), so the chain discipline's CAS
// choreography is unnecessary here: plain publish stores suffice.

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"rphash/internal/obs"
)

// flatGroupCells is the inline cell count per bucket group: eight
// cells, so the tag word is exactly one uint64 and a group's tag scan
// is one load.
const flatGroupCells = 8

const (
	flatLoBits uint64 = 0x0101010101010101
	flatHiBits uint64 = 0x8080808080808080
)

// flatTag derives a cell's 8-bit tag from its hash's top byte, mapped
// away from zero (zero marks an empty cell). The bucket index uses
// the LOW hash bits, so tag and index are independent and a tag match
// is a 255/256 filter within the group.
func flatTag(h uint64) uint64 {
	tg := h >> 56
	if tg == 0 {
		tg = 1
	}
	return tg
}

// flatMatchMask returns a mask with the high bit of every byte lane
// whose tag byte MAY equal tag (the classic SWAR zero-byte scan).
// Borrow propagation across lanes can set spurious high bits, so
// callers must confirm each candidate lane with an exact byte
// compare before touching its cell — a cell mid-publication (tag
// still zero) must never be dereferenced on a false positive.
func flatMatchMask(tags, tag uint64) uint64 {
	x := tags ^ (tag * flatLoBits)
	return (x - flatLoBits) &^ x & flatHiBits
}

// flatCell is one inline element. key and inline are plain fields
// written before the tag publishes the cell: key is immutable until a
// grace period after tag clearance, inline until the first replace
// displaces it. val points at inline until that replace and at a heap
// box after it, and is swapped atomically so readers always observe a
// complete value. Lookups compare the key after an exact tag match;
// the hash is not cached (recomputed only by resize and the checkers).
type flatCell[K comparable, V any] struct {
	val    atomic.Pointer[V]
	key    K
	inline V
}

// flatGroup is one bucket: the packed tag word, the retiring mask
// (per cell i, flatRetireBit<<i while a delete's post-grace cleanup is
// pending and flatClearBit<<i while a displaced inline value awaits its
// post-grace clear; either keeps inserts off the cell), the spill
// chain head, and the inline cells.
type flatGroup[K comparable, V any] struct {
	tags     atomic.Uint64
	retiring atomic.Uint64
	overflow atomic.Pointer[node[K, V]]
	cells    [flatGroupCells]flatCell[K, V]
}

const (
	flatRetireBit uint64 = 1
	flatClearBit  uint64 = 1 << flatGroupCells
)

// flatView is one immutable-size group array. The engine swaps whole
// views on resize (flat_resize.go); while a migration is in flight
// prev points at the superseded view and migrated carries one flag
// per migration unit. Readers capture one view pointer per operation
// and route each key through its unit flag.
type flatView[K comparable, V any] struct {
	mask   uint64 // len(groups)-1
	groups []flatGroup[K, V]

	// Migration state; zero/nil on a finished view. A migration unit
	// is a group index under unitMask = min(old, new)-1: growing, unit
	// u covers old group u splitting into new groups u and u+units;
	// shrinking, unit u covers old groups u and u+units merging into
	// new group u. migrated[u] is set (release) only after every
	// element of the unit is copied into this view's groups.
	prev     *flatView[K, V]
	migrated []atomic.Uint32
	unitMask uint64

	// done counts migrated units — flags flipped by the resize pass or
	// by assisting writers alike (each unit flips exactly once: the
	// flip happens under the stripe covering the unit). Introspection
	// only; the routing correctness story never reads it.
	done atomic.Uint64
}

func newFlatView[K comparable, V any](n uint64, prev *flatView[K, V]) *flatView[K, V] {
	v := &flatView[K, V]{mask: n - 1, groups: make([]flatGroup[K, V], n)}
	if prev != nil {
		units := min(n, prev.mask+1)
		v.migrated = make([]atomic.Uint32, units)
		v.unitMask = units - 1
		v.prev = prev
	}
	return v
}

// flatEngine implements the engine interface over flatViews.
type flatEngine[K comparable, V any] struct {
	t    *Table[K, V]
	view atomic.Pointer[flatView[K, V]]
}

func (e *flatEngine[K, V]) name() string { return EngineFlat }

func (e *flatEngine[K, V]) bucketCount() uint64 { return e.view.Load().mask + 1 }

func (e *flatEngine[K, V]) migrationFloor() uint64 {
	if v := e.view.Load(); v.prev != nil {
		return v.unitMask + 1
	}
	return 0
}

// ---------------------------------------------------------------------
// Read side.

// flatReadGroup routes a hash to its authoritative group: during a
// migration, a unit whose flag is still clear is served by the OLD
// view's group (never mutated after the new view published), and a
// set flag routes to the new groups — the copy-based analogue of the
// chain engine's readers routing through the doubled array mid-unzip.
// The flag load is the acquire edge pairing with migrateUnit's
// release store, so a routed reader observes the complete copy.
func flatReadGroup[K comparable, V any](v *flatView[K, V], h uint64) *flatGroup[K, V] {
	if p := v.prev; p != nil && v.migrated[h&v.unitMask].Load() == 0 {
		return &p.groups[h&p.mask]
	}
	return &v.groups[h&v.mask]
}

// lookupHashed is the flat engine's synchronization-free lookup: one
// view load, one tag-word load, SWAR candidate scan, inline cell
// compare, overflow walk only on spill. Caller is inside a read-side
// critical section of t.dom.
func (e *flatEngine[K, V]) lookupHashed(h uint64, k K) (V, bool) {
	g := flatReadGroup(e.view.Load(), h)
	tag := flatTag(h)
	tags := g.tags.Load()
	for m := flatMatchMask(tags, tag); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m) >> 3
		if byte(tags>>(8*uint(i))) != byte(tag) {
			continue // SWAR borrow artifact; see flatMatchMask
		}
		c := &g.cells[i]
		if c.key == k {
			if vp := c.val.Load(); vp != nil {
				return *vp, true
			}
		}
	}
	for n := g.overflow.Load(); n != nil; n = n.next.Load() {
		if n.hash == h && n.key == k {
			return *n.val.Load(), true
		}
	}
	var zero V
	return zero, false
}

// ---------------------------------------------------------------------
// Write side. Every mutation holds the stripe covering its hash; the
// helpers below assume that.

// writeGroup returns the current view and the authoritative group for
// h, first migrating h's unit if a copy-based resize is in flight
// (migrate-on-write keeps writer latency bounded by one group copy
// and lets writes land only in the new view, which is what makes old
// groups immutable). The caller holds the stripe covering h, which —
// because the effective stripe mask never exceeds the unit count
// during a migration — also covers the whole unit.
func (e *flatEngine[K, V]) writeGroup(h uint64) *flatGroup[K, V] {
	g, _ := e.writeGroupAssist(h)
	return g
}

// writeGroupAssist is writeGroup plus the flight recorder's path
// signal: assisted reports whether THIS writer migrated the key's
// unit (the migration-assist path class).
func (e *flatEngine[K, V]) writeGroupAssist(h uint64) (g *flatGroup[K, V], assisted bool) {
	v := e.view.Load()
	if v.prev != nil {
		if u := h & v.unitMask; v.migrated[u].Load() == 0 {
			e.migrateUnit(v, u)
			assisted = true
		}
	}
	return &v.groups[h&v.mask], assisted
}

// find locates (h, k) in group g under the stripe: a non-negative
// cell index, or the overflow node, or (-1, nil) for absent.
func (g *flatGroup[K, V]) find(h uint64, k K) (int, *node[K, V]) {
	tag := flatTag(h)
	tags := g.tags.Load()
	for m := flatMatchMask(tags, tag); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m) >> 3
		if byte(tags>>(8*uint(i))) != byte(tag) {
			continue
		}
		if g.cells[i].key == k {
			return i, nil
		}
	}
	for n := g.overflow.Load(); n != nil; n = n.next.Load() {
		if n.hash == h && n.key == k {
			return -1, n
		}
	}
	return -1, nil
}

// putLocked publishes a new element into group g: a free inline cell
// if one exists, else a prepend to the spill chain. Raw storage only:
// callers own count/stat updates, because migration copies re-publish
// existing elements through this same path without recounting them.
func (g *flatGroup[K, V]) putLocked(h uint64, k K, v V) {
	if !g.putInline(flatTag(h), k, v) {
		g.spill(h, k, v)
	}
}

// putInline publishes (k, v) with the given tag into a free cell —
// tag byte empty and no cleanup pending, since a cell awaiting one may
// still be read by pre-grace readers — and reports whether one was
// free. The value lives in the cell itself: no allocation.
func (g *flatGroup[K, V]) putInline(tag uint64, k K, v V) bool {
	tags := g.tags.Load()
	pending := g.retiring.Load()
	for i := 0; i < flatGroupCells; i++ {
		if byte(tags>>(8*uint(i))) == 0 && pending&((flatRetireBit|flatClearBit)<<uint(i)) == 0 {
			c := &g.cells[i]
			c.key = k
			c.inline = v
			c.val.Store(&c.inline)
			g.tags.Store(tags | tag<<(8*uint(i))) // publish
			return true
		}
	}
	return false
}

// spill prepends (k, v) to g's overflow chain, boxing the value.
func (g *flatGroup[K, V]) spill(h uint64, k K, v V) {
	n := &node[K, V]{hash: h, key: k}
	n.val.Store(box(v))
	n.next.Store(g.overflow.Load()) // initialize ...
	g.overflow.Store(n)             // ... then publish
}

// box returns v in a fresh heap allocation: the value a replace
// publishes, so a reader holding the previous pointer keeps a complete
// old value.
func box[V any](v V) *V { return &v }

// valueAt loads the value of the element find located at (ci, n).
func (g *flatGroup[K, V]) valueAt(ci int, n *node[K, V]) V {
	if ci >= 0 {
		return *g.cells[ci].val.Load()
	}
	return *n.val.Load()
}

// flatRetire is the post-grace cleanup token of one removed element
// or one displaced inline value; the zero token asks for nothing. For
// a cell, bit names the wait it ends (flatRetireBit for a delete,
// flatClearBit for the first replace after an insert); clearing that
// bit is the release edge that lets putLocked reuse the cell. For a
// spill node: sever next so a captured node cannot pin the live chain.
type flatRetire[K comparable, V any] struct {
	g    *flatGroup[K, V]
	cell int // -1 for an overflow node
	n    *node[K, V]
	bit  uint64
}

func (r flatRetire[K, V]) retire() {
	if r.cell < 0 {
		r.n.next.Store(nil)
		return
	}
	c := &r.g.cells[r.cell]
	// Exactly one token zeroes each inline value: the clear token of
	// the replace that displaced it, else the delete's (val still
	// pointing at the slot says no replace did). So the two never write
	// the slot concurrently, even when Defer runs them synchronously on
	// two writers after the domain closed.
	owns := r.bit == flatClearBit
	if r.bit == flatRetireBit {
		owns = c.val.Swap(nil) == &c.inline
	}
	if owns {
		var zero V
		c.inline = zero
	}
	r.g.retiring.And(^(r.bit << uint(r.cell)))
}

// queue passes a non-empty token through dom.Defer. Callers hold no
// stripe. (Kept inlinable: most replaces queue nothing.)
func (r flatRetire[K, V]) queue(t *Table[K, V]) {
	if r.g != nil || r.n != nil {
		r.deferRetire(t)
	}
}

func (r flatRetire[K, V]) deferRetire(t *Table[K, V]) { t.dom.Defer(r.retire) }

// retireAll queues one post-grace callback for a batch's tokens.
// Callers hold no stripe.
func retireAll[K comparable, V any](t *Table[K, V], rts []flatRetire[K, V]) {
	if len(rts) > 0 {
		t.dom.Defer(func() {
			for _, r := range rts {
				r.retire()
			}
		})
	}
}

// replaceLocked stores the fresh box vp as the value of the element at
// (ci, n) and returns the cleanup token the caller queues after
// releasing the stripe: non-empty only when the store displaced a
// cell's inline value, whose slot readers may still be reading. The
// clear bit set here keeps the cell from reuse until that token ran.
func (g *flatGroup[K, V]) replaceLocked(ci int, n *node[K, V], vp *V) flatRetire[K, V] {
	if ci < 0 {
		n.val.Store(vp)
	} else if c := &g.cells[ci]; c.val.Swap(vp) == &c.inline {
		return g.displaced(ci)
	}
	return flatRetire[K, V]{}
}

// displaced marks cell ci's inline value as awaiting its clear and
// returns the token that performs it.
func (g *flatGroup[K, V]) displaced(ci int) flatRetire[K, V] {
	g.retiring.Or(flatClearBit << uint(ci))
	return flatRetire[K, V]{g: g, cell: ci, bit: flatClearBit}
}

// removeLocked unpublishes the element at (ci, n) — exactly one of
// cell index or overflow node — from group g and returns its retire
// token, which the caller must pass through dom.Defer (directly or
// batched). Count/stat updates are the caller's, mirroring putLocked.
func (g *flatGroup[K, V]) removeLocked(ci int, n *node[K, V]) flatRetire[K, V] {
	if ci >= 0 {
		g.tags.Store(g.tags.Load() &^ (uint64(0xff) << (8 * uint(ci))))
		g.retiring.Or(flatRetireBit << uint(ci))
		return flatRetire[K, V]{g: g, cell: ci, bit: flatRetireBit}
	}
	if head := g.overflow.Load(); head == n {
		g.overflow.Store(n.next.Load())
	} else {
		for p := head; p != nil; p = p.next.Load() {
			if p.next.Load() == n {
				p.next.Store(n.next.Load())
				break
			}
		}
	}
	return flatRetire[K, V]{cell: -1, n: n}
}

// upsertLocked is the shared set/update storage step: replace in
// place when present, publish when absent. Returns whether a new
// element was inserted (counted here; callers fire resize triggers
// after releasing the stripe) and the replace's cleanup token, which
// callers queue after releasing it.
func (e *flatEngine[K, V]) upsertLocked(g *flatGroup[K, V], h uint64, k K, v V) (bool, flatRetire[K, V]) {
	if ci, n := g.find(h, k); ci >= 0 || n != nil {
		return false, g.replaceLocked(ci, n, box(v))
	}
	g.putLocked(h, k, v)
	e.t.wc.count.Add(1)
	e.t.wc.inserts.Add(1)
	return true, flatRetire[K, V]{}
}

func (e *flatEngine[K, V]) setHashed(h uint64, k K, v V) bool {
	t := e.t
	pr := t.opStart(h)
	s := t.lockHash(h)
	g, assisted := e.writeGroupAssist(h)
	inserted, rt := e.upsertLocked(g, h, k, v)
	spilled := g.overflow.Load() != nil
	s.mu.Unlock()
	rt.queue(t)
	if inserted {
		t.maybeAutoResizeBackpressure()
	}
	t.opRecord(pr, h, obs.OpSet, flatOpPath(assisted, spilled), outIf(inserted))
	return inserted
}

func (e *flatEngine[K, V]) swapHashed(h uint64, k K, v V) (old V, replaced bool) {
	t := e.t
	pr := t.opStart(h)
	s := t.lockHash(h)
	g, assisted := e.writeGroupAssist(h)
	if ci, n := g.find(h, k); ci >= 0 || n != nil {
		old = g.valueAt(ci, n)
		rt := g.replaceLocked(ci, n, box(v))
		spilled := g.overflow.Load() != nil
		s.mu.Unlock()
		rt.queue(t)
		t.opRecord(pr, h, obs.OpSwap, flatOpPath(assisted, spilled), obs.OutReplaced)
		return old, true
	}
	g.putLocked(h, k, v)
	t.wc.count.Add(1)
	t.wc.inserts.Add(1)
	spilled := g.overflow.Load() != nil
	s.mu.Unlock()
	t.maybeAutoResizeBackpressure()
	t.opRecord(pr, h, obs.OpSwap, flatOpPath(assisted, spilled), obs.OutInserted)
	return old, false
}

func (e *flatEngine[K, V]) insertHashed(h uint64, k K, v V) bool {
	t := e.t
	pr := t.opStart(h)
	s := t.lockHash(h)
	g, assisted := e.writeGroupAssist(h)
	if ci, n := g.find(h, k); ci >= 0 || n != nil {
		spilled := g.overflow.Load() != nil
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpInsert, flatOpPath(assisted, spilled), obs.OutNoop)
		return false
	}
	g.putLocked(h, k, v)
	t.wc.count.Add(1)
	t.wc.inserts.Add(1)
	spilled := g.overflow.Load() != nil
	s.mu.Unlock()
	t.maybeAutoResizeBackpressure()
	t.opRecord(pr, h, obs.OpInsert, flatOpPath(assisted, spilled), obs.OutInserted)
	return true
}

func (e *flatEngine[K, V]) replaceHashed(h uint64, k K, v V) bool {
	t := e.t
	s := t.lockHash(h)
	g := e.writeGroup(h)
	ci, n := g.find(h, k)
	if ci < 0 && n == nil {
		s.mu.Unlock()
		return false
	}
	rt := g.replaceLocked(ci, n, box(v))
	s.mu.Unlock()
	rt.queue(t)
	return true
}

func (e *flatEngine[K, V]) updateHashed(h uint64, k K, fn func(cur V, present bool) (V, bool)) (prev V, hadPrev, stored bool) {
	t := e.t
	pr := t.opStart(h)
	s := t.lockHash(h)
	g, assisted := e.writeGroupAssist(h)
	ci, n := g.find(h, k)
	if hadPrev = ci >= 0 || n != nil; hadPrev {
		prev = g.valueAt(ci, n)
	}
	v, store := fn(prev, hadPrev)
	if !store {
		spilled := g.overflow.Load() != nil
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpUpdate, flatOpPath(assisted, spilled), obs.OutNoop)
		return prev, hadPrev, false
	}
	if hadPrev {
		rt := g.replaceLocked(ci, n, box(v))
		spilled := g.overflow.Load() != nil
		s.mu.Unlock()
		rt.queue(t)
		t.opRecord(pr, h, obs.OpUpdate, flatOpPath(assisted, spilled), obs.OutReplaced)
		return prev, hadPrev, true
	}
	g.putLocked(h, k, v)
	t.wc.count.Add(1)
	t.wc.inserts.Add(1)
	spilled := g.overflow.Load() != nil
	s.mu.Unlock()
	t.maybeAutoResizeBackpressure()
	t.opRecord(pr, h, obs.OpUpdate, flatOpPath(assisted, spilled), obs.OutInserted)
	return prev, false, true
}

func (e *flatEngine[K, V]) compareAndDeleteHashed(h uint64, k K, match func(V) bool) (V, bool) {
	t := e.t
	pr := t.opStart(h)
	s := t.lockHash(h)
	g, assisted := e.writeGroupAssist(h)
	ci, n := g.find(h, k)
	if ci < 0 && n == nil {
		spilled := g.overflow.Load() != nil
		s.mu.Unlock()
		var zero V
		t.opRecord(pr, h, obs.OpDelete, flatOpPath(assisted, spilled), obs.OutMiss)
		return zero, false
	}
	removed := g.valueAt(ci, n)
	if match != nil && !match(removed) {
		spilled := g.overflow.Load() != nil
		s.mu.Unlock()
		var zero V
		t.opRecord(pr, h, obs.OpDelete, flatOpPath(assisted, spilled), obs.OutNoop)
		return zero, false
	}
	rt := g.removeLocked(ci, n)
	t.wc.count.Add(-1)
	t.wc.deletes.Add(1)
	spilled := g.overflow.Load() != nil || n != nil
	s.mu.Unlock()
	rt.queue(t)
	t.maybeAutoResize()
	t.opRecord(pr, h, obs.OpDelete, flatOpPath(assisted, spilled), obs.OutDeleted)
	return removed, true
}

// compareAndSwapValueHashed is the flat engine's value-plane RMW. It
// rides the stripes — see the value-plane note at the top of this
// file — so match runs exactly once, already serialized against
// every other writer on the key.
func (e *flatEngine[K, V]) compareAndSwapValueHashed(h uint64, k K, match func(V) bool, v V) (swapped, present bool) {
	t := e.t
	pr := t.opStart(h)
	s := t.lockHash(h)
	g, assisted := e.writeGroupAssist(h)
	ci, n := g.find(h, k)
	spilled := g.overflow.Load() != nil
	if ci < 0 && n == nil {
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpValueCAS, flatOpPath(assisted, spilled), obs.OutMiss)
		return false, false
	}
	if match != nil && !match(g.valueAt(ci, n)) {
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpValueCAS, flatOpPath(assisted, spilled), obs.OutNoop)
		return false, true
	}
	rt := g.replaceLocked(ci, n, box(v))
	t.stats.valueCASSwaps.Add(1)
	s.mu.Unlock()
	rt.queue(t)
	t.opRecord(pr, h, obs.OpValueCAS, flatOpPath(assisted, spilled), obs.OutReplaced)
	return true, true
}

// move renames oldKey to newKey (both absent/present checks and the
// publish-before-unlink order match the chain engine's Move: the
// value is never absent from the table). oldKey != newKey.
func (e *flatEngine[K, V]) move(oldKey, newKey K) bool {
	t := e.t
	oh, nh := t.hash(oldKey), t.hash(newKey)
	s1, s2 := t.lockHash2(oh, nh)
	unlock := func() {
		if s2 != nil {
			s2.mu.Unlock()
		}
		s1.mu.Unlock()
	}
	og := e.writeGroup(oh)
	ng := e.writeGroup(nh)
	oci, on := og.find(oh, oldKey)
	if oci < 0 && on == nil {
		unlock()
		return false
	}
	if ci, n := ng.find(nh, newKey); ci >= 0 || n != nil {
		unlock()
		return false
	}
	ng.putLocked(nh, newKey, og.valueAt(oci, on)) // publish the copy first
	t.stats.moves.Add(1)
	rt := og.removeLocked(oci, on)
	unlock()
	rt.queue(t)
	return true
}

// ---------------------------------------------------------------------
// Batched writes: the same sorted-stripe amortization as the chain
// engine (batchWriter holds one stripe at a time), with migrate-on-
// write per key and one deferred cleanup covering the whole batch.

func (e *flatEngine[K, V]) setBatchHashed(hs []uint64, ks []K, vs []V) (inserted int) {
	t := e.t
	sc := t.stripeOrder(hs)
	w := batchWriter[K, V]{t: t}
	var rts []flatRetire[K, V]
	for _, packed := range sc.ord {
		i := int(packed & 0xffffffff)
		w.acquire(hs[i])
		g := e.writeGroup(hs[i])
		ins, rt := e.upsertLocked(g, hs[i], ks[i], vs[i])
		if ins {
			inserted++
		} else if rt.g != nil {
			rts = append(rts, rt)
		}
	}
	w.release()
	t.batchPool.Put(sc)
	retireAll(t, rts)
	if inserted > 0 {
		t.maybeAutoResizeBackpressure()
	}
	return inserted
}

func (e *flatEngine[K, V]) deleteBatchHashed(hs []uint64, ks []K) (removed int) {
	t := e.t
	sc := t.stripeOrder(hs)
	w := batchWriter[K, V]{t: t}
	var rts []flatRetire[K, V]
	for _, packed := range sc.ord {
		i := int(packed & 0xffffffff)
		w.acquire(hs[i])
		g := e.writeGroup(hs[i])
		ci, n := g.find(hs[i], ks[i])
		if ci < 0 && n == nil {
			continue
		}
		rts = append(rts, g.removeLocked(ci, n))
		t.wc.count.Add(-1)
		t.wc.deletes.Add(1)
		removed++
	}
	w.release()
	t.batchPool.Put(sc)
	retireAll(t, rts)
	if removed > 0 {
		t.maybeAutoResize()
	}
	return removed
}

// ---------------------------------------------------------------------
// Traversals.

// rangeGroup visits g's published elements (tag-gated cell reads plus
// the overflow chain) until fn returns false.
func rangeGroup[K comparable, V any](g *flatGroup[K, V], fn func(K, V) bool) bool {
	tags := g.tags.Load()
	for i := 0; i < flatGroupCells; i++ {
		if byte(tags>>(8*uint(i))) == 0 {
			continue
		}
		c := &g.cells[i]
		vp := c.val.Load()
		if vp == nil {
			continue
		}
		if !fn(c.key, *vp) {
			return false
		}
	}
	for n := g.overflow.Load(); n != nil; n = n.next.Load() {
		if !fn(n.key, *n.val.Load()) {
			return false
		}
	}
	return true
}

// scanMask makes a view's traversal units its migration units while
// a migration is in flight, else its groups.
func (v *flatView[K, V]) scanMask() uint64 {
	if v.prev != nil {
		return v.unitMask
	}
	return v.mask
}

// unitGroups routes migration unit u the way readers are routed: an
// unmigrated unit is served by its old source group(s), a migrated one
// by its new destination group(s). It returns the view holding them
// and whether a second group, at u plus the unit count, belongs too.
func (v *flatView[K, V]) unitGroups(u uint64) (src *flatView[K, V], two bool) {
	p := v.prev
	switch {
	case p == nil:
		return v, false
	case v.migrated[u].Load() == 0:
		return p, p.mask > v.mask // shrinking: two source groups merge into u
	default:
		return v, v.mask > p.mask // growing: u split into two destination groups
	}
}

// scanUnit visits every element of migration unit u exactly once,
// whatever the migration's progress.
func (v *flatView[K, V]) scanUnit(u uint64, fn func(K, V) bool) bool {
	src, two := v.unitGroups(u)
	return rangeGroup(&src.groups[u], fn) && (!two || rangeGroup(&src.groups[u+v.unitMask+1], fn))
}

func (e *flatEngine[K, V]) snapshot() unitView[K, V] { return e.view.Load() }

// holds reports whether p points into v's group array, as a pointer
// to some cell's inline slot does (checkers only).
func (v *flatView[K, V]) holds(p *V) bool {
	lo := uintptr(unsafe.Pointer(&v.groups[0]))
	a := uintptr(unsafe.Pointer(p))
	return a >= lo && a < lo+uintptr(len(v.groups))*unsafe.Sizeof(v.groups[0])
}

// maxProbe reports the longest per-bucket probe: occupied inline
// cells plus the spill-chain length of the fullest group, the flat
// analogue of the chain engine's MaxChain.
func (e *flatEngine[K, V]) maxProbe() int {
	maxLen := 0
	e.t.dom.Read(func() {
		v := e.view.Load()
		scan := func(g *flatGroup[K, V]) {
			tags := g.tags.Load()
			l := 0
			for i := 0; i < flatGroupCells; i++ {
				if byte(tags>>(8*uint(i))) != 0 {
					l++
				}
			}
			for n := g.overflow.Load(); n != nil; n = n.next.Load() {
				l++
			}
			if l > maxLen {
				maxLen = l
			}
		}
		for i := range v.groups {
			scan(&v.groups[i])
		}
		if p := v.prev; p != nil {
			for i := range p.groups {
				scan(&p.groups[i])
			}
		}
	})
	return maxLen
}

// ---------------------------------------------------------------------
// Structural invariants (tests and -tags=invariants builds).

// checkInvariants validates the flat structure when writers are
// quiesced: tag integrity (every published cell's tag byte matches
// its key's hash, no cell is simultaneously published and retiring),
// value placement (a published cell's val points at its own inline
// slot, with no clear pending, or at a heap box — never into any
// cell of either view's group arrays), home routing (every element reachable through exactly
// the group the reader routing serves its hash from), spill-chain
// termination, and count integrity across migration units.
func (e *flatEngine[K, V]) checkInvariants() error {
	t := e.t
	var err error
	t.dom.Read(func() {
		v := e.view.Load()
		total := t.wc.count.Load()
		limit := int(total) + flatGroupCells + 8
		seen := 0
		checkGroup := func(view *flatView[K, V], gi uint64) bool {
			g := &view.groups[gi]
			tags := g.tags.Load()
			retiring := g.retiring.Load()
			for i := 0; i < flatGroupCells; i++ {
				b := byte(tags >> (8 * uint(i)))
				if b == 0 {
					continue
				}
				if retiring&(flatRetireBit<<uint(i)) != 0 {
					err = fmt.Errorf("group %d cell %d: published and retiring simultaneously", gi, i)
					return false
				}
				c := &g.cells[i]
				h := t.hash(c.key)
				if byte(flatTag(h)) != b {
					err = fmt.Errorf("group %d cell %d: tag %#x does not match hash tag %#x", gi, i, b, byte(flatTag(h)))
					return false
				}
				if h&view.mask != gi {
					err = fmt.Errorf("group %d cell %d: key %v homed in wrong group", gi, i, c.key)
					return false
				}
				switch vp := c.val.Load(); {
				case vp == nil:
					err = fmt.Errorf("group %d cell %d: published cell has nil value", gi, i)
				case vp == &c.inline:
					if retiring&(flatClearBit<<uint(i)) != 0 {
						err = fmt.Errorf("group %d cell %d: value in its inline slot while the slot's clear is pending", gi, i)
					}
				case v.holds(vp) || v.prev != nil && v.prev.holds(vp):
					err = fmt.Errorf("group %d cell %d: value points into another cell's inline slot", gi, i)
				}
				if err != nil {
					return false
				}
				seen++
			}
			steps := 0
			for n := g.overflow.Load(); n != nil; n = n.next.Load() {
				if steps++; steps > limit {
					err = fmt.Errorf("group %d: overflow walk exceeded %d steps; cycle or stray link", gi, limit)
					return false
				}
				if n.hash != t.hash(n.key) {
					err = fmt.Errorf("group %d overflow: key %v has stale hash", gi, n.key)
					return false
				}
				if n.hash&view.mask != gi {
					err = fmt.Errorf("group %d overflow: key %v homed in wrong group", gi, n.key)
					return false
				}
				seen++
			}
			return true
		}
		for u := uint64(0); u <= v.scanMask(); u++ {
			src, two := v.unitGroups(u)
			if !checkGroup(src, u) || two && !checkGroup(src, u+v.unitMask+1) {
				return
			}
		}
		if err == nil && int64(seen) != total {
			err = fmt.Errorf("reachable elements = %d, count = %d", seen, total)
		}
	})
	return err
}

// checkInvariantsLive is the writer-concurrent subset: tag integrity
// of published cells, spill hash integrity and spill-chain termination, over
// both views of an in-flight migration. Count integrity is absent
// for the same reason as the chain engine's live check.
func (e *flatEngine[K, V]) checkInvariantsLive() error {
	t := e.t
	var err error
	t.dom.Read(func() {
		v := e.view.Load()
		limit := 2*int(t.wc.count.Load()) + flatGroupCells + 1024
		checkView := func(view *flatView[K, V]) {
			for gi := range view.groups {
				g := &view.groups[gi]
				tags := g.tags.Load()
				for i := 0; i < flatGroupCells; i++ {
					b := byte(tags >> (8 * uint(i)))
					if b == 0 {
						continue
					}
					if tg := byte(flatTag(t.hash(g.cells[i].key))); tg != b {
						err = fmt.Errorf("group %d cell %d: tag %#x does not match hash tag %#x", gi, i, b, tg)
						return
					}
				}
				steps := 0
				for n := g.overflow.Load(); n != nil; n = n.next.Load() {
					if steps++; steps > limit {
						err = fmt.Errorf("group %d: overflow walk exceeded %d steps; cycle or stray link", gi, limit)
						return
					}
					if n.hash != t.hash(n.key) {
						err = fmt.Errorf("group %d overflow: key %v has stale hash", gi, n.key)
						return
					}
				}
			}
		}
		checkView(v)
		if v.prev != nil {
			checkView(v.prev)
		}
	})
	return err
}
