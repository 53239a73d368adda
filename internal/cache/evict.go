package cache

import "rphash/internal/hashfn"

// evict brings the cost total back under budget by sampled LRU: it
// samples entries from shard start (rotating onward while still over
// budget), removes the least-recently-used of each sample — expired
// entries are taken outright — and repeats. One evictor runs at a
// time; the writer holding evictMu re-reads the live cost each
// iteration, so cost added by concurrent writers while it runs is
// paid down before it returns. Readers are never blocked: sampling
// walks chains inside RCU reader sections and removal goes through
// the shard's ordinary relativistic delete.
func (c *Cache[K, V]) evict(start int) {
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	n := c.m.NumShards()
	shard := start
	misses := 0
	for c.cost.Load() > c.maxCost {
		key, e, ok := c.sampleVictim(shard)
		shard = (shard + 1) % n
		if !ok {
			// Empty shard, or nothing within evictScanUnits buckets
			// of the sampled start; if a full rotation finds nothing
			// evictable, bail rather than spin (the next writer over
			// budget samples again from fresh starts).
			misses++
			if misses > n {
				return
			}
			continue
		}
		misses = 0
		removed, ok := c.m.CompareAndDelete(key, func(cur *entry[V]) bool { return cur == e })
		if !ok {
			continue // refreshed since sampling; the new entry earned its stay
		}
		c.cost.Add(-removed.cost)
		if c.expired(removed) {
			c.expirations.Add(1)
		} else {
			c.evictions.Add(1)
		}
	}
}

// A victim sample is drawn from evictWindows places in the shard,
// each a run of consecutive buckets from its own pseudo-random start.
// One run alone samples badly: starts that fall in a stretch of empty
// buckets all funnel into the same entries, that neighbourhood loses
// its stale entries first, and from then on samples taken there hold
// nothing but recently used ones. (On TestSampledLRUKeepsHotSet one
// run keeps 79 % of the hot set, two keep 91 %.) evictScanUnits caps
// how many buckets a run may walk: on a shard whose bucket array is
// nearly empty it gives up there, keeping what it found, and if the
// whole sample found nothing eviction rotates to the next shard
// instead of walking the array.
const (
	evictWindows   = 2
	evictScanUnits = 512
)

// sampleVictim examines c.sample entries of shard i and returns the
// stalest. An expired entry short-circuits the scan: reclaiming it is
// strictly better than evicting anything live. The cost is O(sample)
// whatever the shard's size: evictWindows bounded reader sections,
// no walk to a random offset.
func (c *Cache[K, V]) sampleVictim(i int) (K, *entry[V], bool) {
	t := c.m.Shard(i)
	now := c.clk.Nanos()
	// One struct, so the closure costs one allocation, not one per
	// captured variable.
	var s struct {
		k              K
		e              *entry[V]
		scanned, quota int
		expired        bool
	}
	visit := func(k K, e *entry[V]) bool {
		s.scanned++
		if e.expireAt != 0 && e.expireAt <= now {
			s.k, s.e, s.expired = k, e, true
			return false
		}
		if s.e == nil || e.lastUsed.Load() < s.e.lastUsed.Load() {
			s.k, s.e = k, e
		}
		return s.scanned < s.quota
	}
	for w := 1; w <= evictWindows && !s.expired; w++ {
		if s.quota = c.sample * w / evictWindows; s.scanned < s.quota {
			t.ScanFrom(hashfn.Uint64(c.evictSeq.Add(1), 0), evictScanUnits, visit)
		}
	}
	c.evictScanned.Add(uint64(s.scanned))
	return s.k, s.e, s.e != nil
}
