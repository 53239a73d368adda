package core

// The "flat" engine: cache-line-contiguous bucket storage behind the
// engine seam (engine.go), selected with WithEngine(EngineFlat).
//
// Layout. Each bucket is one flatGroup: a packed word of eight 8-bit
// hash tags, a retiring-cell mask, eight inline key/value cells, and
// an overflow chain head for spill. A lookup loads the tag word once,
// SWAR-scans it for candidate cells, and touches only cells whose tag
// byte matches — the common miss costs one cache line, the common hit
// two, with no pointer chase at all. The chain engine's lookup walks
// a linked list whose nodes are scattered heap allocations; this
// layout is the classic flat alternative (Maier et al.'s folklore
// baseline, Malakhov's per-bucket tables) expressed relativistically.
//
// Publication protocol. Cells are published and retired exclusively
// through the tag word:
//
//   - Insert (stripe held): write the cell's hash/key plainly, store
//     the value box, then atomically store the tag word with the
//     cell's tag byte set. The tag store is the release edge; a
//     reader that observes the tag observes the complete cell.
//   - Delete (stripe held): atomically store the tag word with the
//     byte cleared, set the cell's retiring bit, and defer the
//     cleanup (value-box release, retiring clear) past a grace
//     period. Readers that saw the tag may still be dereferencing
//     the cell; the retiring bit keeps inserts from rewriting its
//     hash/key until the grace period proves those readers gone.
//     The deferred retiring clear is itself the release edge a later
//     insert's acquire load pairs with, so cell reuse is ordered
//     after every reader that could see the old contents.
//
// Readers therefore never synchronize: one atomic tag load, plain
// cell reads, an atomic value-box load — the same read-side cost
// model as the chain engine, on contiguous memory.
//
// Value plane. Every write — including Replace and
// CompareAndSwapValue — takes the key's stripe. This is the one
// deliberate semantic difference from the chain engine: chain resizes
// relink the same nodes and never copy them, so a lock-free value CAS
// can never be lost to a resize; the flat engine's COPY-based
// migration (flat_resize.go) duplicates value pointers into new
// groups, and a lock-free store into an already-copied cell would be
// silently lost — a lost update, not a stale read. Riding the stripes
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

// flatCell is one inline element. hash and key are plain fields,
// immutable from tag publication until a grace period after tag
// clearance; val is swapped atomically so readers always observe a
// complete value.
type flatCell[K comparable, V any] struct {
	val  atomic.Pointer[V]
	hash uint64
	key  K
}

// flatGroup is one bucket: the packed tag word, the retiring mask
// (bit i set while cell i awaits its post-grace cleanup), the spill
// chain head, and the inline cells.
type flatGroup[K comparable, V any] struct {
	tags     atomic.Uint64
	retiring atomic.Uint64
	overflow atomic.Pointer[node[K, V]]
	cells    [flatGroupCells]flatCell[K, V]
}

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
		if c.hash == h && c.key == k {
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
		c := &g.cells[i]
		if c.hash == h && c.key == k {
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
// if one exists (tag byte empty AND not retiring — a retiring cell
// may still be dereferenced by pre-grace readers), else a prepend to
// the spill chain. Raw storage only: callers own count/stat updates,
// because migration copies re-publish existing elements through this
// same path without recounting them.
func (e *flatEngine[K, V]) putLocked(g *flatGroup[K, V], h uint64, k K, vp *V) {
	tags := g.tags.Load()
	retiring := g.retiring.Load()
	for i := 0; i < flatGroupCells; i++ {
		if byte(tags>>(8*uint(i))) == 0 && retiring&(1<<uint(i)) == 0 {
			c := &g.cells[i]
			c.hash = h
			c.key = k
			c.val.Store(vp)
			g.tags.Store(tags | flatTag(h)<<(8*uint(i))) // publish
			return
		}
	}
	n := &node[K, V]{hash: h, key: k}
	n.val.Store(vp)
	n.next.Store(g.overflow.Load()) // initialize ...
	g.overflow.Store(n)             // ... then publish
}

// flatRetire is the post-grace cleanup token of one removed element.
// For an inline cell: release the value box and clear the retiring
// bit (the release edge that lets putLocked reuse the cell). For a
// spill node: sever next so a captured node cannot pin the live
// chain.
type flatRetire[K comparable, V any] struct {
	g    *flatGroup[K, V]
	cell int // -1 for an overflow node
	n    *node[K, V]
}

func (r flatRetire[K, V]) retire() {
	if r.cell >= 0 {
		r.g.cells[r.cell].val.Store(nil)
		r.g.retiring.And(^(uint64(1) << uint(r.cell)))
		return
	}
	r.n.next.Store(nil)
}

// removeLocked unpublishes the element at (ci, n) — exactly one of
// cell index or overflow node — from group g and returns its retire
// token, which the caller must pass through dom.Defer (directly or
// batched). Count/stat updates are the caller's, mirroring putLocked.
func (e *flatEngine[K, V]) removeLocked(g *flatGroup[K, V], ci int, n *node[K, V]) flatRetire[K, V] {
	if ci >= 0 {
		g.tags.Store(g.tags.Load() &^ (uint64(0xff) << (8 * uint(ci))))
		g.retiring.Or(uint64(1) << uint(ci))
		return flatRetire[K, V]{g: g, cell: ci}
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
// after releasing the stripe).
func (e *flatEngine[K, V]) upsertLocked(g *flatGroup[K, V], h uint64, k K, vp *V) bool {
	if ci, n := g.find(h, k); ci >= 0 {
		g.cells[ci].val.Store(vp)
		return false
	} else if n != nil {
		n.val.Store(vp)
		return false
	}
	e.putLocked(g, h, k, vp)
	e.t.wc.count.Add(1)
	e.t.wc.inserts.Add(1)
	return true
}

func (e *flatEngine[K, V]) setHashed(h uint64, k K, v V) bool {
	t := e.t
	pr := t.opStart(h)
	s := t.lockHash(h)
	g, assisted := e.writeGroupAssist(h)
	inserted := e.upsertLocked(g, h, k, &v)
	spilled := g.overflow.Load() != nil
	s.mu.Unlock()
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
	if ci, n := g.find(h, k); ci >= 0 {
		old = *g.cells[ci].val.Load()
		g.cells[ci].val.Store(&v)
		spilled := g.overflow.Load() != nil
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpSwap, flatOpPath(assisted, spilled), obs.OutReplaced)
		return old, true
	} else if n != nil {
		old = *n.val.Load()
		n.val.Store(&v)
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpSwap, flatOpPath(assisted, true), obs.OutReplaced)
		return old, true
	}
	e.putLocked(g, h, k, &v)
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
	e.putLocked(g, h, k, &v)
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
	defer s.mu.Unlock()
	g := e.writeGroup(h)
	if ci, n := g.find(h, k); ci >= 0 {
		g.cells[ci].val.Store(&v)
		return true
	} else if n != nil {
		n.val.Store(&v)
		return true
	}
	return false
}

func (e *flatEngine[K, V]) updateHashed(h uint64, k K, fn func(cur V, present bool) (V, bool)) (prev V, hadPrev, stored bool) {
	t := e.t
	pr := t.opStart(h)
	s := t.lockHash(h)
	g, assisted := e.writeGroupAssist(h)
	var slot *atomic.Pointer[V]
	if ci, n := g.find(h, k); ci >= 0 {
		slot = &g.cells[ci].val
	} else if n != nil {
		slot = &n.val
	}
	if slot != nil {
		prev = *slot.Load()
		hadPrev = true
	}
	v, store := fn(prev, hadPrev)
	if !store {
		spilled := g.overflow.Load() != nil
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpUpdate, flatOpPath(assisted, spilled), obs.OutNoop)
		return prev, hadPrev, false
	}
	if slot != nil {
		slot.Store(&v)
		spilled := g.overflow.Load() != nil
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpUpdate, flatOpPath(assisted, spilled), obs.OutReplaced)
		return prev, hadPrev, true
	}
	e.putLocked(g, h, k, &v)
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
	var removed V
	if ci >= 0 {
		removed = *g.cells[ci].val.Load()
	} else {
		removed = *n.val.Load()
	}
	if match != nil && !match(removed) {
		spilled := g.overflow.Load() != nil
		s.mu.Unlock()
		var zero V
		t.opRecord(pr, h, obs.OpDelete, flatOpPath(assisted, spilled), obs.OutNoop)
		return zero, false
	}
	rt := e.removeLocked(g, ci, n)
	t.wc.count.Add(-1)
	t.wc.deletes.Add(1)
	spilled := g.overflow.Load() != nil || n != nil
	s.mu.Unlock()
	t.dom.Defer(rt.retire)
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
	var slot *atomic.Pointer[V]
	if ci, n := g.find(h, k); ci >= 0 {
		slot = &g.cells[ci].val
	} else if n != nil {
		slot = &n.val
	}
	spilled := g.overflow.Load() != nil
	if slot == nil {
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpValueCAS, flatOpPath(assisted, spilled), obs.OutMiss)
		return false, false
	}
	if match != nil && !match(*slot.Load()) {
		s.mu.Unlock()
		t.opRecord(pr, h, obs.OpValueCAS, flatOpPath(assisted, spilled), obs.OutNoop)
		return false, true
	}
	slot.Store(&v)
	t.stats.valueCASSwaps.Add(1)
	s.mu.Unlock()
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
	var vp *V
	if oci >= 0 {
		vp = og.cells[oci].val.Load()
	} else {
		vp = on.val.Load()
	}
	e.putLocked(ng, nh, newKey, vp) // publish the copy first (shared value box)
	t.stats.moves.Add(1)
	rt := e.removeLocked(og, oci, on)
	unlock()
	t.dom.Defer(rt.retire)
	return true
}

// ---------------------------------------------------------------------
// Batched writes: the same sorted-stripe amortization as the chain
// engine (batchWriter holds one stripe at a time), with migrate-on-
// write per key and — for deletes — one deferred cleanup covering the
// whole batch.

func (e *flatEngine[K, V]) setBatchHashed(hs []uint64, ks []K, vs []V) (inserted int) {
	t := e.t
	sc := t.stripeOrder(hs)
	w := batchWriter[K, V]{t: t}
	for _, packed := range sc.ord {
		i := int(packed & 0xffffffff)
		w.acquire(hs[i])
		g := e.writeGroup(hs[i])
		// Copy before boxing: the box must not alias the caller's
		// slice, which it may reuse after the call.
		v := vs[i]
		if e.upsertLocked(g, hs[i], ks[i], &v) {
			inserted++
		}
	}
	w.release()
	t.batchPool.Put(sc)
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
		rts = append(rts, e.removeLocked(g, ci, n))
		t.wc.count.Add(-1)
		t.wc.deletes.Add(1)
		removed++
	}
	w.release()
	t.batchPool.Put(sc)
	if len(rts) > 0 {
		t.dom.Defer(func() {
			for _, r := range rts {
				r.retire()
			}
		})
	}
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
// its hash, no cell is simultaneously published and retiring), hash
// integrity, home routing (every element reachable through exactly
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
				if retiring&(1<<uint(i)) != 0 {
					err = fmt.Errorf("group %d cell %d: published and retiring simultaneously", gi, i)
					return false
				}
				c := &g.cells[i]
				if c.hash != t.hash(c.key) {
					err = fmt.Errorf("group %d cell %d: key %v has stale hash", gi, i, c.key)
					return false
				}
				if byte(flatTag(c.hash)) != b {
					err = fmt.Errorf("group %d cell %d: tag %#x does not match hash tag %#x", gi, i, b, byte(flatTag(c.hash)))
					return false
				}
				if c.hash&view.mask != gi {
					err = fmt.Errorf("group %d cell %d: key %v homed in wrong group", gi, i, c.key)
					return false
				}
				if c.val.Load() == nil {
					err = fmt.Errorf("group %d cell %d: published cell has nil value", gi, i)
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

// checkInvariantsLive is the writer-concurrent subset: tag and hash
// integrity of published cells plus spill-chain termination, over
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
					c := &g.cells[i]
					if c.hash != t.hash(c.key) {
						err = fmt.Errorf("group %d cell %d: key %v has stale hash", gi, i, c.key)
						return
					}
					if byte(flatTag(c.hash)) != b {
						err = fmt.Errorf("group %d cell %d: tag %#x does not match hash tag %#x", gi, i, b, byte(flatTag(c.hash)))
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
