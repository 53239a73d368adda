package core

import (
	"rphash/internal/hashfn"
	"rphash/internal/obs"
)

// growBackpressureFactor: when the load factor exceeds this multiple
// of the grow watermark, writers stop outrunning the resizer and
// help instead (see maybeAutoResize). 2 means a table is allowed to
// overshoot its target load by 2x while a background expansion is in
// flight before writers throttle.
const growBackpressureFactor = 2

// maybeAutoResize checks the load factor against the policy
// watermarks after a mutation and, if crossed, starts a background
// resize. At most one auto-resize runs at a time per direction
// trigger; resizes serialize with each other on resizeMu and
// coordinate with writers through the stripes.
//
// This variant never resizes synchronously — everything it starts
// runs on a fresh goroutine — so it is the one delete paths call:
// a delete can only lower the load factor, and deleting callers may
// hold their own locks across the call (cache eviction holds its
// evictMu around CompareAndDelete), which must therefore never wait
// for a grace period. Insert paths, which can drive the load factor
// up, call maybeAutoResizeBackpressure instead. Keeping the two as
// separate functions (rather than a flag) lets rplint/gracewait
// prove the delete path cannot reach Synchronize.
func (t *Table[K, V]) maybeAutoResize() {
	p := t.policy
	if p.MaxLoad <= 0 && p.MinLoad <= 0 {
		return
	}
	count := float64(t.wc.count.Load())
	nbuckets := float64(t.eng.bucketCount())

	if p.MaxLoad > 0 && count > p.MaxLoad*nbuckets {
		if t.grow.pending.CompareAndSwap(false, true) {
			t.obsEvent(obs.EvAutoGrow, int64(count), int64(nbuckets), 0)
			go func() {
				t.autoResizeTarget()
				t.stats.autoGrows.Add(1)
				t.grow.pending.Store(false)
				// Writes that crossed the watermark while we resized
				// saw pending=true and skipped re-triggering; if the
				// table outgrew our (point-in-time) target during the
				// resize, nothing else will start the next one. Re-check
				// now that pending is clear, so the trigger never gets
				// lost between a finishing resize and a quiescent
				// writer population. (This goroutine holds no locks, so
				// the backpressure variant is safe here and preserves
				// the synchronous gap-closing the re-check exists for.)
				t.maybeAutoResizeBackpressure()
			}()
		}
		return
	}
	if p.MinLoad > 0 && nbuckets > float64(p.MinBuckets) && count < p.MinLoad*nbuckets {
		if t.shrink.pending.CompareAndSwap(false, true) {
			t.obsEvent(obs.EvAutoShrink, int64(count), int64(nbuckets), 0)
			go func() {
				t.autoResizeTarget()
				t.stats.autoShrinks.Add(1)
				t.shrink.pending.Store(false)
				t.maybeAutoResizeBackpressure() // see the grow path: close the skipped-trigger window
			}()
		}
	}
}

// maybeAutoResizeBackpressure is maybeAutoResize for insert paths:
// the same background triggers, plus the synchronous throttle.
//
// Backpressure: striped writers no longer block for the duration of
// a resize the way the old table-wide mutex forced them to, so a
// saturating writer could outrun a background expansion
// indefinitely — chains lengthen, each doubling needs more unzip
// passes, and the table spirals away from its target load. If the
// load factor exceeds growBackpressureFactor times the watermark
// while an expansion is already in flight, the writer that observes
// it performs the resize synchronously: it blocks on resizeMu behind
// the in-flight expansion (the actual throttle) and then closes
// whatever gap remains itself. Writers below the threshold are never
// slowed. Callers must hold no locks: the synchronous path waits for
// grace periods inside Resize.
func (t *Table[K, V]) maybeAutoResizeBackpressure() {
	p := t.policy
	if p.MaxLoad > 0 {
		count := float64(t.wc.count.Load())
		nbuckets := float64(t.eng.bucketCount())
		if count > growBackpressureFactor*p.MaxLoad*nbuckets && t.grow.pending.Load() {
			t.autoResizeTarget()
			t.stats.autoGrows.Add(1)
			return
		}
	}
	t.maybeAutoResize()
}

// autoResizeTarget resizes toward a mid-band load factor so small
// oscillations around a watermark do not thrash.
func (t *Table[K, V]) autoResizeTarget() {
	p := t.policy
	count := uint64(t.wc.count.Load())
	if count == 0 {
		t.Resize(p.MinBuckets)
		return
	}
	// Aim for the geometric middle of the band, defaulting to 1.0
	// element/bucket when only one watermark is set.
	target := 1.0
	switch {
	case p.MaxLoad > 0 && p.MinLoad > 0:
		target = p.MaxLoad / 2
	case p.MaxLoad > 0:
		target = p.MaxLoad / 2
	case p.MinLoad > 0:
		target = p.MinLoad * 2
	}
	want := hashfn.NextPowerOfTwo(uint64(float64(count)/target + 1))
	t.Resize(want)
}
