package core

// Copy-based relativistic resize for the flat engine.
//
// The chain engine resizes by relinking the SAME nodes (unzip/zip);
// inline cells cannot be relinked, so the flat engine migrates by
// copying elements into a fresh group array — but with the same
// relativistic structure the paper's unzip has: publish first, route
// readers per-bucket while migration proceeds, and spend exactly one
// grace period per phase rather than one per bucket.
//
// Choreography of one factor-of-two step:
//
//  1. "Publish new view" (all stripes held, resizeEpoch odd): swap in
//     a new flatView whose prev points at the old one and whose
//     migrated flags are all clear. In the same critical section the
//     effective stripe mask is clamped to the migration unit count,
//     so for the whole migration one stripe covers each unit — the
//     old group(s) and new group(s) of a unit never span stripes
//     (the flat analogue of unzip's parent-granularity mask).
//  2. "Wait for readers": one grace period. Every reader now routes
//     through the new view's migrated flags; every writer migrates
//     its unit before mutating it (writeGroup). From here the old
//     view is IMMUTABLE — writes land only in new groups — which is
//     what makes the unmigrated-unit read path safe.
//  3. "Migrate": one pass over the units, batched by stripe exactly
//     like unzip passes (one stripe lock per batch, writers on other
//     stripes undisturbed). Each unit copy re-publishes its elements into the new
//     groups — key and current value copied into fresh cells, the
//     value inline — then sets the unit's migrated flag (release).
//     Units already migrated by writers are skipped.
//
//     Why the copies are linearizable although they share nothing.
//     The old view is immutable once published: the swap held every
//     stripe, so every later writer loads the new view, and it
//     migrates its unit (writeGroup) before it mutates anything
//     (pending cleanups touch only cells no tag publishes). The unit's
//     stripe is held from the copy through the flag store, so at the
//     flag store both copies hold the same elements and values, and
//     every mutation of the unit after publication lands in the new
//     groups after that store. A reader that sees the flag clear
//     linearizes at its flag load: the old copy has not changed since
//     the publish, so it is the unit's state at that instant, and every
//     later mutation follows the flag store. (A reader still holding a
//     view pointer loaded before the publish is an ordinary reader of
//     that view, which no write touches after the publish.) A reader
//     that sees the flag set (acquire,
//     pairing with the release store) observes the complete new copy
//     and every later mutation ordered by the stripe. The flag never
//     clears, so a lookup that starts after another finished never
//     routes back to the older copy.
//  4. "Wait for readers": one grace period, after which no reader
//     can be walking an old group.
//  5. "Retire" (all stripes held, epoch odd): publish a finished view
//     (prev nil) with the same group array, restore the stripe mask
//     to the new bucket count, and let the GC reclaim the old view.
//
// Grace-period budget: two per step (publish + migration pass),
// matching the chain engine's floor of publish + one batched unzip
// pass. The copy cost is the price of cache-line-contiguous lookups.

import (
	"runtime/trace"
	"time"

	"rphash/internal/obs"
)

func (e *flatEngine[K, V]) expandStep() { e.migrateStep(true) }
func (e *flatEngine[K, V]) shrinkStep() { e.migrateStep(false) }

// migrateStep performs one factor-of-two flat resize. The caller
// holds resizeMu (so views are finished on entry: prev == nil) and no
// stripes.
func (e *flatEngine[K, V]) migrateStep(grow bool) {
	t := e.t
	start := time.Now()
	t.migrateStartNS.Store(start.UnixNano())
	defer t.migrateStartNS.Store(0)
	ctx, endTask := resizeTraceTask("rphash.flatmigrate")
	defer endTask()
	t.lockAll()
	old := e.view.Load()
	oldSize := old.mask + 1
	if !grow && (oldSize <= t.policy.MinBuckets || oldSize == 1) {
		t.unlockAll()
		return
	}
	// Odd before the new view publishes: checkStripeInvariants and the
	// chain engine's CAS paths treat an odd epoch as "geometry in
	// motion", and the mask clamp below must be atomic with the view
	// swap from any observer's perspective.
	t.resizeEpoch.Add(1)
	var newSize uint64
	if grow {
		newSize = oldSize * 2
		t.obsEvent(obs.EvExpandStart, int64(oldSize), int64(newSize), 0)
	} else {
		newSize = oldSize / 2
		t.obsEvent(obs.EvShrinkStart, int64(oldSize), int64(newSize), 0)
	}
	nv := newFlatView[K, V](newSize, old)
	units := nv.unitMask + 1
	t.stripes.mask.Store(effectiveStripeMask(len(t.stripes.locks), units))
	e.view.Store(nv) // step 1: publish
	t.resizeEpoch.Add(1)
	t.unlockAll()
	if grow {
		t.obsEvent(obs.EvExpandPublish, int64(units), 0, 0)
	}
	publishRegion := trace.StartRegion(ctx, "publish-grace")
	t.syncResize() // step 2: all readers now route via nv
	publishRegion.End()

	// Step 3: the migration pass, batched by stripe. The mask was
	// clamped to the unit count, so stripe s owns units s, s+S, s+2S…
	// — locking s freezes those units entirely (writers, including
	// migrate-on-write, take the same stripe).
	t.unzipBacklog.Store(int64(units))
	stripeMask := t.stripes.mask.Load() // frozen: only resizes change it, and we hold resizeMu
	passRegion := trace.StartRegion(ctx, "migrate-pass")
	var copied int64
	for s := uint64(0); s <= stripeMask; s++ {
		copied += int64(e.migrateStripe(nv, s, stripeMask))
	}
	t.unzipBacklog.Store(0)
	// One "pass" in the chain engine's vocabulary: the whole table
	// migrated under a single shared grace period.
	t.obsEvent(obs.EvUnzipPass, 1, copied, 0)
	t.stats.unzipPasses.Add(1)
	t.syncResize() // step 4: no reader can hold an old group
	passRegion.End()

	// Step 5: retire the migration state. A finished view (no prev, no
	// flags) over the same groups makes the read path's fast branch
	// unconditional again, and the stripe mask rises (grow) or is
	// already at (shrink) the new bucket count.
	t.lockAll()
	t.resizeEpoch.Add(1)
	e.view.Store(&flatView[K, V]{mask: nv.mask, groups: nv.groups})
	t.stripes.mask.Store(effectiveStripeMask(len(t.stripes.locks), newSize))
	t.resizeEpoch.Add(1)
	t.unlockAll()
	if grow {
		t.stats.expands.Add(1)
		t.obsEvent(obs.EvExpandDone, 1, time.Since(start).Nanoseconds(), 0)
	} else {
		t.stats.shrinks.Add(1)
		t.obsEvent(obs.EvShrinkDone, time.Since(start).Nanoseconds(), 0, 0)
	}
	t.assertInvariantsLive()
}

// migrateStripe migrates every still-unmigrated unit owned by stripe
// s, holding the stripe for the whole batch. Returns how many units
// this call migrated (units already migrated by writers are skipped;
// they were counted by nobody — the backlog gauge is approximate by
// design, like the chain engine's).
func (e *flatEngine[K, V]) migrateStripe(v *flatView[K, V], s, stripeMask uint64) int {
	lock := &e.t.stripes.locks[s]
	lock.mu.Lock()
	units := v.unitMask + 1
	migrated := 0
	for u := s; u < units; u += stripeMask + 1 {
		if v.migrated[u].Load() == 0 {
			e.migrateUnit(v, u)
			migrated++
		}
	}
	lock.mu.Unlock()
	e.t.unzipBacklog.Add(-int64(migrated))
	return migrated
}

// migrateUnit copies migration unit u from the old view into the new
// one and publishes the unit's routing flag. The caller holds the
// stripe covering u — which, because the effective mask never exceeds
// the unit count mid-migration, covers the unit's old group(s) and
// new group(s) alike, serializing this copy against every writer and
// every other migrator of the unit.
func (e *flatEngine[K, V]) migrateUnit(v *flatView[K, V], u uint64) {
	e.copyGroup(v, u)
	if v.prev.mask > v.mask { // shrinking: the high sibling merges in too
		e.copyGroup(v, u+v.unitMask+1)
	}
	v.migrated[u].Store(1) // release: readers now route to the new groups
	v.done.Add(1)          // introspection only: units migrated so far
}

// copyGroup re-publishes every element of old group gi into its new
// home group as a fresh element: the value is copied into the new
// cell's inline slot (so a resize also unboxes replaced values), or
// into a fresh box if the element spills. Cells carry no hash, so a
// grow recomputes it to pick between the two split groups; a shrink
// merges gi into group gi&mask, keeps the source tag byte, and needs
// the hash only for an element that spills.
func (e *flatEngine[K, V]) copyGroup(v *flatView[K, V], gi uint64) {
	src := &v.prev.groups[gi]
	grow := v.mask > v.prev.mask
	tags := src.tags.Load()
	for i := 0; i < flatGroupCells; i++ {
		tag := tags >> (8 * uint(i)) & 0xff
		if tag == 0 {
			continue
		}
		c := &src.cells[i]
		val := *c.val.Load()
		if grow {
			h := e.t.hash(c.key)
			v.groups[h&v.mask].putLocked(h, c.key, val)
		} else if dst := &v.groups[gi&v.mask]; !dst.putInline(tag, c.key, val) {
			dst.spill(e.t.hash(c.key), c.key, val)
		}
	}
	for n := src.overflow.Load(); n != nil; n = n.next.Load() {
		v.groups[n.hash&v.mask].putLocked(n.hash, n.key, *n.val.Load())
	}
}
