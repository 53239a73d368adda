package core

import (
	"context"
	"fmt"
	"runtime/trace"
	"time"

	"rphash/internal/hashfn"
	"rphash/internal/obs"
)

// Resize grows or shrinks the table to n buckets (rounded up to a
// power of two, floored at the policy minimum). It proceeds in
// factor-of-two steps, each a complete zip or unzip with its own
// grace periods, so lookups remain synchronization-free and correct
// throughout. Resizes serialize with each other on resizeMu; they
// coordinate with writers through the stripes:
//
//   - Array construction and publication hold EVERY stripe — a brief
//     O(buckets) window during which no writer can observe a
//     half-built array or insert into a chain being captured.
//   - Grace-period waits hold NO stripes, so writers flow freely
//     while readers drain. This is where resizes spend nearly all
//     their time, and it is the window the old table-wide mutex used
//     to block writers for.
//   - Unzip migration batches hold exactly one stripe each (all the
//     parent chains mapped to that stripe), so writers to the other
//     stripes proceed in parallel with the migration.
func (t *Table[K, V]) Resize(n uint64) {
	n = hashfn.NextPowerOfTwo(max(n, t.policy.MinBuckets))
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	for {
		cur := t.eng.bucketCount()
		switch {
		case cur < n:
			//lint:allow rplint/gracewait resizeMu is the resize protocol's own serializer, never taken by readers or per-key writers, so holding it across the grace wait is deadlock-free by design
			t.eng.expandStep()
		case cur > n:
			//lint:allow rplint/gracewait resizeMu is the resize protocol's own serializer, never taken by readers or per-key writers, so holding it across the grace wait is deadlock-free by design
			t.eng.shrinkStep()
		default:
			return
		}
	}
}

// syncResize is Synchronize with resize-lifecycle instrumentation:
// when an observer is installed, each grace period the resize waits
// out becomes an EvGraceWait ring event carrying its wall time. The
// caller holds resizeMu but no stripes (grace waits never run under
// stripes — that is the resize protocol's core rule, and
// rplint/gracewait checks it).
func (t *Table[K, V]) syncResize() {
	if t.obsv == nil {
		t.dom.Synchronize()
		return
	}
	t0 := time.Now()
	t.dom.Synchronize()
	t.obsEvent(obs.EvGraceWait, time.Since(t0).Nanoseconds(), 0, 0)
}

// resizeTraceTask opens a runtime/trace user task when tracing is
// active, so `go tool trace` shows each resize as a task with its
// unzip passes as regions. Returns a no-op ender otherwise.
func resizeTraceTask(name string) (context.Context, func()) {
	if !trace.IsEnabled() {
		return context.Background(), func() {}
	}
	ctx, task := trace.NewTask(context.Background(), name)
	return ctx, task.End
}

// shrinkStep halves the bucket count: the paper's "zip". Steps
// (slide titles in quotes):
//
//  1. "Initialize new buckets": each new bucket j adopts old chain j.
//  2. "Link old chains": the tail of old chain j is linked to the
//     head of old chain j+m (published store). Readers still on the
//     old array see bucket j grow a foreign suffix — a harmless
//     superset. Readers of old bucket j+m are untouched.
//  3. "Publish new buckets": swap in the half-size array.
//  4. "Wait for readers": after one grace period no reader can hold
//     the old array.
//  5. "Reclaim": the old array is garbage; Go's GC collects it.
//
// Steps 1–3 run with every stripe held (writers would otherwise
// mutate chains mid-capture); the effective stripe mask is lowered in
// the same critical section, because a merged chain spans two old
// sibling buckets and is only stripe-homogeneous under the new,
// smaller mask. The grace period waits with no stripes held.
func (t *Table[K, V]) chainShrinkStep() {
	t.lockAll()
	old := t.ht.Load()
	oldSize := old.size()
	if oldSize <= t.policy.MinBuckets || oldSize == 1 {
		t.unlockAll()
		return
	}
	// Odd before the first chain-head read: a CAS-path insert that
	// publishes after this point fails its epoch re-validation, so the
	// zip capture below cannot silently drop it. (The early return
	// above mutates nothing and must not leave the epoch odd.)
	t.resizeEpoch.Add(1)
	start := time.Now()
	ctx, endTask := resizeTraceTask("rphash.shrink")
	defer endTask()
	defer trace.StartRegion(ctx, "zip").End()
	newSize := oldSize / 2
	t.obsEvent(obs.EvShrinkStart, int64(oldSize), int64(newSize), 0)
	nb := newBuckets[K, V](newSize)

	for j := uint64(0); j < newSize; j++ {
		low := old.slot[j].Load()
		high := old.slot[j+newSize].Load()
		if low == nil {
			nb.slot[j].Store(high)
			continue
		}
		nb.slot[j].Store(low)
		if high == nil {
			continue
		}
		tail := low
		for next := tail.next.Load(); next != nil; next = tail.next.Load() {
			tail = next
		}
		tail.next.Store(high) // link: old-array readers see a superset
	}

	t.stripes.mask.Store(effectiveStripeMask(len(t.stripes.locks), newSize))
	t.ht.Store(nb) // publish
	t.resizeEpoch.Add(1)
	t.unlockAll()
	t.syncResize() // wait for readers; old array now unreachable
	t.stats.shrinks.Add(1)
	t.obsEvent(obs.EvShrinkDone, time.Since(start).Nanoseconds(), 0, 0)
	t.assertInvariantsLive()
}

// expandStep doubles the bucket count: the paper's "unzip".
//
//  1. "Initialize new buckets": child buckets b and b+m point at the
//     first node of parent chain b that belongs to them. Chains stay
//     interleaved ("zipped"); each child head is a superset of the
//     child bucket.
//  2. "Publish new buckets", then "Wait for readers": after one grace
//     period every reader indexes the new, doubled array.
//  3. "Unzip one step" / "Wait for readers", repeated: each pass
//     makes at most one cut per parent chain — redirecting one
//     pointer to skip a run of nodes that belong to the sibling
//     child — then waits a grace period before the next pass. The
//     grace period guarantees no reader is positioned inside a run
//     that the next cut would detach from its traversal.
//
// Stripe choreography: step 1 and the publish run with every stripe
// held; t.unzipParent is set in the same critical section, switching
// writers into zipped-chain mode (unlinks patch the sibling chain
// too — see unlinkLocked). The effective stripe mask stays at the
// PARENT granularity for the whole unzip, so one stripe always
// covers a parent chain together with both of its children. Each
// unzip pass then takes one stripe at a time and cuts every parent
// chain mapped to it — a migration batch — leaving writers on other
// stripes undisturbed; grace periods between passes hold no stripes
// at all. A final all-stripes section clears unzipParent and raises
// the mask to the doubled bucket count.
func (t *Table[K, V]) chainExpandStep() {
	start := time.Now()
	t.migrateStartNS.Store(start.UnixNano())
	defer t.migrateStartNS.Store(0)
	ctx, endTask := resizeTraceTask("rphash.expand")
	defer endTask()
	t.lockAll()
	// Odd before the child-head capture walks: any CAS-path insert
	// publishing after this point re-validates and recovers instead of
	// trusting a head the capture may have read too early.
	t.resizeEpoch.Add(1)
	old := t.ht.Load()
	oldSize := old.size()
	newSize := oldSize * 2
	t.obsEvent(obs.EvExpandStart, int64(oldSize), int64(newSize), 0)
	nb := newBuckets[K, V](newSize)

	// Step 1: point each child bucket into the parent chain.
	for i := uint64(0); i < oldSize; i++ {
		var lowSet, highSet bool
		for n := old.slot[i].Load(); n != nil && !(lowSet && highSet); n = n.next.Load() {
			child := n.hash & nb.mask
			if child == i && !lowSet {
				nb.slot[i].Store(n)
				lowSet = true
			} else if child == i+oldSize && !highSet {
				nb.slot[i+oldSize].Store(n)
				highSet = true
			}
		}
	}

	// Collect the parents that can possibly need cuts — both children
	// non-empty — ordered by stripe so each pass locks a stripe once
	// for all of its parents. Built under the all-stripes section, so
	// the heads are stable. Once a parent's children are disjoint
	// they stay disjoint (head inserts only prepend to exclusive
	// prefixes, deletes only shorten chains, and only a resize — which
	// we serialize with via resizeMu — can zip chains together), so
	// the list is filtered monotonically: pass N skips every parent
	// pass N-1 finished, and the per-pass lock traffic shrinks with
	// the remaining work instead of re-sweeping every stripe.
	stripeMask := t.stripes.mask.Load() // frozen: only resizes change it, and we hold resizeMu
	active := make([]uint64, 0, oldSize)
	for s := uint64(0); s <= stripeMask; s++ {
		for i := s; i < oldSize; i += stripeMask + 1 {
			if nb.slot[i].Load() != nil && nb.slot[i+oldSize].Load() != nil {
				active = append(active, i)
			}
		}
	}

	// Step 2: publish and wait. unzipParent is published in the same
	// all-stripes section as the array, so any writer that sees the
	// doubled array also sees the unzip window and vice versa. After
	// the grace period no reader walks a chain via the old array's
	// (coarser) mask.
	t.unzipParent.Store(oldSize)
	t.ht.Store(nb)
	t.resizeEpoch.Add(1)
	t.unlockAll()
	t.obsEvent(obs.EvExpandPublish, int64(len(active)), 0, 0)
	publishRegion := trace.StartRegion(ctx, "publish-grace")
	t.syncResize()
	publishRegion.End()

	// Step 3: unzip passes. Cuts on different parent chains are
	// independent, so each pass batches one cut per parent and the
	// batch shares a single grace period — the paper's batching.
	// (With WithUnzipGracePerCut — ablation only — each cut pays its
	// own grace period, quantifying what batching buys.) Writers
	// interleave between migration batches and between passes; the
	// cut-point derivation tolerates that because every pass
	// re-derives its state from the live bucket heads.
	passes := 0
	for pass := 1; len(active) > 0; pass++ {
		t.unzipBacklog.Store(int64(len(active)))
		passRegion := trace.StartRegion(ctx, "unzip-pass")
		var cuts int
		cuts, active = t.unzipPass(nb, active, oldSize, stripeMask)
		if cuts == 0 {
			passRegion.End()
			break
		}
		t.obsEvent(obs.EvUnzipPass, int64(pass), int64(cuts), 0)
		if !t.unzipPerCutGrace {
			t.syncResize()
		}
		passRegion.End()
		passes = pass
		t.stats.unzipPasses.Add(1)
		t.stats.unzipCuts.Add(uint64(cuts))
		if t.testHookAfterUnzipPass != nil {
			t.testHookAfterUnzipPass(pass)
		}
	}
	t.unzipBacklog.Store(0)

	// Chains are fully disjoint now (and writers cannot re-zip them;
	// only a resize can). Leave zipped-chain mode and raise the
	// stripe mask to the new bucket count, under all stripes so no
	// writer holds a stripe chosen under the old mask.
	t.lockAll()
	t.resizeEpoch.Add(1) // odd: window close in progress
	t.unzipParent.Store(0)
	t.stripes.mask.Store(effectiveStripeMask(len(t.stripes.locks), newSize))
	t.resizeEpoch.Add(1)
	t.unlockAll()
	t.stats.expands.Add(1)
	t.obsEvent(obs.EvExpandDone, int64(passes), time.Since(start).Nanoseconds(), 0)
	t.assertInvariantsLive()
}

// unzipPass makes one cut per active parent, holding one stripe at a
// time (parents arrive grouped by stripe). It returns the cut count
// and the parents still zipped, reusing active's storage.
func (t *Table[K, V]) unzipPass(nb *buckets[K, V], active []uint64, oldSize, stripeMask uint64) (int, []uint64) {
	cuts := 0
	kept := active[:0]
	var held *stripeLock
	heldIdx := ^uint64(0)
	for _, i := range active {
		if s := i & stripeMask; s != heldIdx {
			if held != nil {
				held.mu.Unlock()
			}
			held = &t.stripes.locks[s]
			held.mu.Lock()
			heldIdx = s
		}
		c := t.unzipStep(nb, i, oldSize)
		if c == 0 {
			continue // disjoint now, disjoint forever: drop it
		}
		cuts += c
		kept = append(kept, i)
		if t.unzipPerCutGrace {
			held.mu.Unlock()
			t.syncResize()
			held.mu.Lock()
		}
	}
	if held != nil {
		held.mu.Unlock()
	}
	return cuts, kept
}

// UnzipBacklog reports how many parent chains the in-flight
// expansion still has to unzip (0 when no unzip is running).
func (t *Table[K, V]) UnzipBacklog() int { return int(t.unzipBacklog.Load()) }

// unzipStep performs at most one unzip cut for the chain pair that
// parent bucket `parent` split into (children a = parent and
// b = parent+oldSize). It returns the number of cuts made (0 or 1).
// The caller holds the stripe covering the parent (and hence both
// children).
//
// The cut point is re-derived from the bucket heads each pass, which
// makes every pass self-validating — including against writer
// activity between passes (head inserts prepend to exclusive
// prefixes; deletes shorten chains but never splice them together):
//
//   - Find s, the first node reachable from BOTH child heads (the
//     chains are suffix-sharing, so this is the classic
//     align-lengths-then-lockstep walk).
//   - s belongs to child `owner`. The *other* child's chain reaches s
//     through its predecessor p. Readers of `owner` still need s's
//     run; readers of `other` do not.
//   - Let r be the last node of the owner-run starting at s. Cut by
//     publishing p.next = r.next, detaching the run from `other`'s
//     traversal only.
//
// Safety: p is in `other`'s exclusive prefix, so owner-readers never
// pass through p — the cut is invisible to them. Other-readers that
// entered before the cut may already be inside the s..r run; they
// continue through it into nodes they still need. The caller's grace
// period between passes guarantees that by the time the *next* cut
// redirects a pointer inside this run, those readers are gone.
func (t *Table[K, V]) unzipStep(nb *buckets[K, V], parent, oldSize uint64) int {
	a, b := parent, parent+oldSize
	headA := nb.slot[a].Load()
	headB := nb.slot[b].Load()
	if headA == nil || headB == nil {
		return 0 // one child empty: nothing shared
	}

	lenA, lenB := chainLen(headA), chainLen(headB)
	pA, pB := headA, headB
	var prevA, prevB *node[K, V]
	for ; lenA > lenB; lenA-- {
		prevA, pA = pA, pA.next.Load()
	}
	for ; lenB > lenA; lenB-- {
		prevB, pB = pB, pB.next.Load()
	}
	for pA != pB {
		prevA, pA = pA, pA.next.Load()
		prevB, pB = pB, pB.next.Load()
	}
	s := pA
	if s == nil {
		return 0 // chains disjoint: fully unzipped
	}

	owner := s.hash & nb.mask
	// The cut happens on the chain that does NOT own s.
	var prev *node[K, V]
	var headSlot uint64
	if owner == a {
		prev, headSlot = prevB, b
	} else {
		prev, headSlot = prevA, a
	}

	// r = last node of the run of owner-nodes starting at s.
	r := s
	for {
		next := r.next.Load()
		if next == nil || next.hash&nb.mask != owner {
			break
		}
		r = next
	}
	after := r.next.Load()
	if prev == nil {
		// The non-owner child's head points straight at the foreign
		// run — possible when a writer deleted that child's former
		// head between passes. Redirecting the head slot is the same
		// relativistic cut, just published one pointer earlier.
		nb.slot[headSlot].Store(after)
	} else {
		prev.next.Store(after)
	}
	return 1
}

func chainLen[K comparable, V any](n *node[K, V]) int {
	l := 0
	for ; n != nil; n = n.next.Load() {
		l++
	}
	return l
}

// ExpandOnce doubles the table once (exported for tests and the
// benchmark driver's precise 8k<->16k toggling).
func (t *Table[K, V]) ExpandOnce() {
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	//lint:allow rplint/gracewait resizeMu is the resize protocol's own serializer, never taken by readers or per-key writers, so holding it across the grace wait is deadlock-free by design
	t.eng.expandStep()
}

// ShrinkOnce halves the table once (no-op at the policy floor).
func (t *Table[K, V]) ShrinkOnce() {
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	//lint:allow rplint/gracewait resizeMu is the resize protocol's own serializer, never taken by readers or per-key writers, so holding it across the grace wait is deadlock-free by design
	t.eng.shrinkStep()
}

// String describes the table shape for debugging.
func (t *Table[K, V]) String() string {
	return fmt.Sprintf("core.Table{len=%d buckets=%d}", t.Len(), t.Buckets())
}
