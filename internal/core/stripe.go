package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rphash/internal/hashfn"
	"rphash/internal/obs"
)

// Writer-side striped locking.
//
// The paper serializes every mutation on one per-table mutex; this
// file replaces that mutex with an array of writer locks ("stripes")
// so writers to different buckets proceed in parallel while the
// read side stays exactly the paper's: wait-free, lock-free,
// retry-free, never aware of stripes at all.
//
// The scheme rests on one structural fact: a chain never mixes
// stripes. The stripe of a key is its hash masked by the effective
// stripe mask, and the effective stripe count is kept <= the bucket
// count at all times, so every node in bucket b satisfies
// h & stripeMask == b & stripeMask — including mid-resize, where
// chains span a parent bucket and both its children (expansion) or
// two merged siblings (shrink), which differ only in bits ABOVE the
// stripe mask. Locking stripe(h) therefore excludes every writer
// that could touch any pointer on the chain(s) holding h, in every
// intermediate resize state.
//
// Lock order, for deadlock freedom:
//
//   - Point writers hold exactly one stripe.
//   - Move holds two, acquired in ascending index order.
//   - Batch writers hold one at a time, visiting stripes in
//     ascending (sorted) order.
//   - Resize acquires ALL stripes in ascending order for its brief
//     array-swap phases, and exactly one stripe per migration batch
//     during the long unzip phase.
//
// The lock array is built with the table and never replaced; only the
// effective mask moves, and only at resize boundaries, while every
// stripe is held (all serialized on resizeMu). A writer therefore
// locks optimistically — read the mask, lock the stripe, re-check the
// mask — and a failed re-check means a resize boundary crossed between
// the load and the lock, in which case it retries under the new mask.
// While a writer holds any stripe, the mask and the bucket-array
// pointer are frozen.
//
// Each stripe also carries two padded telemetry counters — total
// acquisitions and contended acquisitions (a failed TryLock before
// blocking) — the per-stripe contention signal Stats reports. The
// counters live on the stripe's own cache line, which the acquiring
// writer owns anyway, so maintaining them costs no extra coherence
// traffic.

// maxStripes caps the physical stripe count: past a few per core,
// more stripes only add memory (64 B each) without reducing
// collisions meaningfully.
const maxStripes = 256

// stripeCacheLine pads each lock to its own cache line so writers on
// different stripes never false-share.
const stripeCacheLine = 64

// stripeLock is one padded writer lock plus its contention telemetry.
type stripeLock struct {
	mu sync.Mutex
	// acquires counts stripe acquisitions by writers (lockHash,
	// lockHash2, batch writers; resize's all-stripes sweeps are
	// excluded as maintenance noise). contended counts the subset
	// that blocked: a TryLock that failed before falling back to
	// Lock. contended/acquires is the stripe's contention rate.
	acquires  atomic.Uint64
	contended atomic.Uint64
	_         [stripeCacheLine - 8 - 16]byte //nolint:unused // layout padding
}

// lockContended acquires the stripe's mutex, counting the acquisition
// and whether it had to block. When an observer is wired (hist
// non-nil), the contended branch — and only that branch — also times
// its wait into the stripe-acquire histogram, so the uncontended fast
// path pays exactly one nil compare for the instrumentation. hint
// picks the histogram's counter bank (callers pass the stripe index).
func (s *stripeLock) lockContended(hist *obs.Histogram, hint int) {
	if !s.mu.TryLock() {
		s.contended.Add(1)
		if hist != nil {
			t0 := time.Now()
			s.mu.Lock()
			hist.RecordSince(hint, t0)
		} else {
			s.mu.Lock()
		}
	}
	s.acquires.Add(1)
}

// stripeSet is a table's writer-lock array plus the effective mask.
type stripeSet struct {
	locks []stripeLock
	// mask is the effective stripe mask: min(len(locks), buckets)-1,
	// except mid-unzip where it stays at parent-bucket granularity.
	// Mutated only with every stripe held.
	mask atomic.Uint64
}

// defaultStripeCount sizes the physical stripe array: a few stripes
// per core's worth of writer parallelism, power of two, clamped to
// [64, maxStripes]. The floor is deliberately generous — 64 padded
// locks are 4 KB, and measurements show small stripe arrays (2–4
// lines indexed by low hash bits) can alias badly in the cache while
// 64+ run at single-mutex speed even single-threaded.
func defaultStripeCount() uint64 {
	n := hashfn.NextPowerOfTwo(uint64(4 * runtime.GOMAXPROCS(0)))
	if n < 64 {
		n = 64
	}
	if n > maxStripes {
		n = maxStripes
	}
	return n
}

// clampStripes rounds a requested physical stripe count to a power of
// two in [1, maxStripes] (the WithStripes option's normalization).
func clampStripes(n int) uint64 {
	if n < 1 {
		n = 1
	}
	s := hashfn.NextPowerOfTwo(uint64(n))
	if s > maxStripes {
		s = maxStripes
	}
	return s
}

// effectiveStripeMask is min(physical, buckets) - 1: the stripe
// count may never exceed the bucket count or chains would mix
// stripes.
func effectiveStripeMask(physical int, buckets uint64) uint64 {
	n := uint64(physical)
	if buckets < n {
		n = buckets
	}
	return n - 1
}

// init builds the lock array: `physical` stripes with the effective
// mask for `buckets`.
func (s *stripeSet) init(physical uint64, buckets uint64) {
	s.locks = make([]stripeLock, physical)
	s.mask.Store(effectiveStripeMask(len(s.locks), buckets))
}

// lockHash acquires the stripe covering hash h and returns it. The
// caller unlocks it. On return the table's bucket array and stripe
// mask are frozen until the stripe is released.
func (t *Table[K, V]) lockHash(h uint64) *stripeLock {
	for {
		m := t.stripes.mask.Load()
		s := &t.stripes.locks[h&m]
		s.lockContended(t.stripeWaitHist(), int(h&m))
		if t.stripes.mask.Load() == m {
			return s
		}
		// A resize boundary crossed between the load and the lock: the
		// stripe we hold may no longer cover h. Retry.
		s.mu.Unlock()
	}
}

// lockHash2 acquires the stripe(s) covering two hashes in ascending
// index order (Move needs both chains). b is nil when one stripe
// covers both.
func (t *Table[K, V]) lockHash2(h1, h2 uint64) (a, b *stripeLock) {
	for {
		m := t.stripes.mask.Load()
		i1, i2 := h1&m, h2&m
		if i1 == i2 {
			s := &t.stripes.locks[i1]
			s.lockContended(t.stripeWaitHist(), int(i1))
			if t.stripes.mask.Load() == m {
				return s, nil
			}
			s.mu.Unlock()
			continue
		}
		if i1 > i2 {
			i1, i2 = i2, i1
		}
		s1, s2 := &t.stripes.locks[i1], &t.stripes.locks[i2]
		s1.lockContended(t.stripeWaitHist(), int(i1))
		s2.lockContended(t.stripeWaitHist(), int(i2))
		if t.stripes.mask.Load() == m {
			return s1, s2
		}
		s2.mu.Unlock()
		s1.mu.Unlock()
	}
}

// lockAll acquires every stripe in ascending order. Only resizes use
// it (under resizeMu), for array-construction/publish phases and mask
// swaps. Maintenance sweeps are not counted in the contention
// telemetry.
func (t *Table[K, V]) lockAll() {
	for i := range t.stripes.locks {
		t.stripes.locks[i].mu.Lock()
	}
}

// unlockAll releases every stripe.
func (t *Table[K, V]) unlockAll() {
	for i := range t.stripes.locks {
		t.stripes.locks[i].mu.Unlock()
	}
}

// Stripes returns the physical writer-stripe count (the effective
// count is min(Stripes, Buckets)).
func (t *Table[K, V]) Stripes() int { return len(t.stripes.locks) }

// EffectiveStripes returns the number of stripes writers currently
// hash across: min(Stripes, Buckets), held at parent granularity for
// the duration of an expansion's unzip.
func (t *Table[K, V]) EffectiveStripes() int {
	return int(t.stripes.mask.Load() + 1)
}

// ContentionCounters returns the cumulative stripe-lock telemetry:
// total writer stripe acquisitions and how many of them blocked
// (failed a TryLock first).
func (t *Table[K, V]) ContentionCounters() (acquires, contended uint64) {
	for i := range t.stripes.locks {
		acquires += t.stripes.locks[i].acquires.Load()
		contended += t.stripes.locks[i].contended.Load()
	}
	return acquires, contended
}
