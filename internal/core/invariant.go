package core

import (
	"fmt"
	"runtime"
)

// checkInvariants validates the table's structural invariants. It is
// test infrastructure, callable at any point — including between
// unzip passes via testHookAfterUnzipPass — because the invariants it
// checks are exactly the ones the algorithm must preserve at every
// intermediate step:
//
//  1. Home reachability: every element is reachable by walking the
//     chain of its home bucket in the current array (the paper's
//     consistency definition: buckets are supersets, never subsets).
//  2. No chain cycles (walks terminate within the element count).
//  3. Hash integrity: node.hash equals hash(node.key).
//  4. Count integrity: the number of distinct home-reachable elements
//     equals Len(), and no two of them carry the same key (what a
//     lock-free insert adopted on a wrong absence proof would leave).
//  5. No dead (casConsumed) node is reachable: an unlink takes the
//     node off every chain through it, mid-unzip the zipped sibling's
//     too (unlinkSiblingLocked). Dead nodes keep their next pointer,
//     so lookups would walk through a leftover one without noticing.
//  6. Stripe coverage (the PR 4 locking invariant, which runtime
//     stripe retuning must also preserve): the effective stripe
//     count never exceeds the bucket count or the physical stripe
//     count, and mid-unzip it never exceeds the parent bucket count
//     — so every chain, including zipped mid-resize chains spanning
//     a parent and both children, is covered by exactly one stripe.
//
// It runs inside one read-side critical section. The structural
// checks (1–5) are engine-specific and dispatch through the engine
// seam; stripe coverage (6) is shared.
func (t *Table[K, V]) checkInvariants() error {
	if err := t.checkStripeInvariants(); err != nil {
		return err
	}
	return t.eng.checkInvariants()
}

// chainCheckInvariants is the chain engine's structural validation.
func (t *Table[K, V]) chainCheckInvariants() error {
	var err error
	t.dom.Read(func() {
		ht := t.ht.Load()
		total := t.wc.count.Load()
		limit := int(total) + len(ht.slot) + 8 // cycle bound per walk

		seen := make(map[*node[K, V]]struct{}, total)
		keys := make(map[K]struct{}, total)
		for i := range ht.slot {
			steps := 0
			for n := ht.slot[i].Load(); n != nil; n = n.next.Load() {
				if steps++; steps > limit {
					err = fmt.Errorf("bucket %d: walk exceeded %d steps; cycle or stray link", i, limit)
					return
				}
				if n.hash != t.hash(n.key) {
					err = fmt.Errorf("bucket %d: node key %v has stale hash", i, n.key)
					return
				}
				if n.casState.Load() == casConsumed {
					err = fmt.Errorf("bucket %d: unlinked node key %v still reachable", i, n.key)
					return
				}
				if n.hash&ht.mask == uint64(i) {
					seen[n] = struct{}{}
					keys[n.key] = struct{}{}
				}
				// Foreign nodes are allowed mid-unzip; their own home
				// walk accounts for them.
			}
		}
		if int64(len(seen)) != total {
			err = fmt.Errorf("home-reachable elements = %d, count = %d", len(seen), total)
			return
		}
		if len(keys) != len(seen) {
			err = fmt.Errorf("%d home-reachable elements carry only %d distinct keys", len(seen), len(keys))
			return
		}
		// Every seen node must be found by an ordinary lookup too
		// (reachability implies the lookup predicate matches).
		for n := range seen {
			if !chainHas(ht.bucketFor(n.hash).Load(), n) {
				err = fmt.Errorf("node %v not reachable from home bucket", n.key)
				return
			}
		}
	})
	return err
}

// checkInvariantsLive is the subset of checkInvariants that stays
// sound while writers mutate the table concurrently: stripe coverage
// (invariant 6), chain termination (2), hash integrity (3), and dead
// nodes (5).
// Count integrity (4) is deliberately absent — t.count and the chain
// contents are updated by different instructions, so any live
// snapshot can legitimately disagree by in-flight mutations — and
// home reachability (1) is covered per-node by the home-bucket walk
// itself. The cycle bound is padded because count races with the
// walk.
//
// It is the -tags=invariants production check (assertInvariantsLive);
// tests that quiesce writers should call checkInvariants instead for
// the stronger count and reachability checks.
func (t *Table[K, V]) checkInvariantsLive() error {
	if err := t.checkStripeInvariants(); err != nil {
		return err
	}
	return t.eng.checkInvariantsLive()
}

// chainCheckInvariantsLive is the chain engine's writer-concurrent
// subset: chain termination, hash integrity, and no reachable dead
// node. A racing delete may mark a node the walk already reached, so
// a marked node is a violation only if a second walk still finds it:
// the mark is stored after the unlink's last pointer redirection.
func (t *Table[K, V]) chainCheckInvariantsLive() error {
	var err error
	t.dom.Read(func() {
		ht := t.ht.Load()
		limit := 2*int(t.wc.count.Load()) + len(ht.slot) + 1024
		for i := range ht.slot {
			steps := 0
			for n := ht.slot[i].Load(); n != nil; n = n.next.Load() {
				if steps++; steps > limit {
					err = fmt.Errorf("bucket %d: walk exceeded %d steps; cycle or stray link", i, limit)
					return
				}
				if n.hash != t.hash(n.key) {
					err = fmt.Errorf("bucket %d: node key %v has stale hash", i, n.key)
					return
				}
				if n.casState.Load() == casConsumed && t.ht.Load() == ht && chainHas(ht.slot[i].Load(), n) {
					err = fmt.Errorf("bucket %d: unlinked node key %v still reachable", i, n.key)
					return
				}
			}
		}
	})
	return err
}

// chainHas reports whether target is on the chain starting at n.
func chainHas[K comparable, V any](n, target *node[K, V]) bool {
	for ; n != nil; n = n.next.Load() {
		if n == target {
			return true
		}
	}
	return false
}

// assertInvariantsLive panics on a live invariant violation. It is
// compiled to a no-op unless built with -tags=invariants; resize
// steps call it after publishing their new state, so every expansion
// and shrink is self-checking in an invariants build while the
// default build pays only a constant-false branch.
func (t *Table[K, V]) assertInvariantsLive() {
	if !invariantsEnabled {
		return
	}
	if err := t.checkInvariantsLive(); err != nil {
		panic("core: invariant violation after resize step: " + err.Error())
	}
}

// checkStripeInvariants validates invariant 5 in isolation (it needs
// no read-side section — every field is a single atomic load). The
// checks are meaningful at any instant, including mid-unzip via
// testHookAfterUnzipPass: these are exactly the bounds that keep every
// chain covered by one stripe.
//
// Snapshot consistency for a checker racing a resize: every mutation
// of the effective mask, the bucket storage, or the migration floor
// happens inside an all-stripes
// critical section, and every such section brackets itself with the
// resizeEpoch seqlock (odd on entry, even on exit). So the whole
// read is retried until the epoch is even and unchanged across it —
// then the fields read belong to one consistent published state,
// exactly the state writers see after their own post-lock re-check.
func (t *Table[K, V]) checkStripeInvariants() error {
	for {
		e1 := t.resizeEpoch.Load()
		if e1&1 != 0 {
			runtime.Gosched() // all-stripes section in progress; its window is microseconds
			continue
		}
		eff := t.stripes.mask.Load() + 1
		phys := uint64(len(t.stripes.locks))
		buckets := t.eng.bucketCount()
		floor := t.eng.migrationFloor()
		if t.resizeEpoch.Load() != e1 {
			continue // an all-stripes section overlapped the snapshot
		}
		if eff > phys {
			return fmt.Errorf("effective stripes %d > physical stripes %d", eff, phys)
		}
		if eff > buckets {
			return fmt.Errorf("effective stripes %d > buckets %d: chains would mix stripes", eff, buckets)
		}
		if floor != 0 && eff > floor {
			return fmt.Errorf("effective stripes %d > migration granularity %d mid-resize: a migrating bucket group would span stripes", eff, floor)
		}
		return nil
	}
}
