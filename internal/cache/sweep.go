package cache

import "time"

// The background sweeper's per-tick budget. sweepBatch bounds how many
// entries one tick examines (and so how many it can reclaim);
// sweepScanUnits bounds how many buckets it may walk to find them, so
// a tick over a nearly empty bucket array stays as short. A full pass
// over the cache therefore takes entries/sweepBatch ticks — 49 ticks
// per 100 000 entries — whatever the shard count.
const (
	sweepBatch     = 2048
	sweepScanUnits = 4 * sweepBatch
)

// SweepExpired removes up to limit expired entries in one pass over
// every shard, returning the count removed. The pass collects bounded
// chunks inside RCU reader sections (it never blocks lookups, and no
// section grows with the cache); each removal re-checks identity
// under the key's writer stripe (CompareAndDelete), so an entry
// refreshed between scan and removal is never lost.
func (c *Cache[K, V]) SweepExpired(limit int) int {
	if limit <= 0 {
		return 0
	}
	removed := 0
	c.m.RangeChunked(sweepBatch, func(k K, e *entry[V]) bool {
		if c.expired(e) && c.reclaim(k, e) {
			removed++
		}
		return removed < limit
	})
	return removed
}

// reclaim removes k if it still maps to the expired entry e.
func (c *Cache[K, V]) reclaim(k K, e *entry[V]) bool {
	removed, ok := c.m.CompareAndDelete(k, func(cur *entry[V]) bool { return cur == e })
	if ok {
		c.cost.Add(-removed.cost)
		c.expirations.Add(1)
	}
	return ok
}

// sweepPos is the background sweeper's position: the shard its next
// tick visits, and per shard the cursor the previous visit returned.
type sweepPos struct {
	shard   int
	cursors []uint64
}

// sweepTick is one step of the background pass: it examines up to
// sweepBatch entries of one shard (within sweepScanUnits buckets),
// resuming where that shard's last visit stopped, reclaims the
// expired ones, and moves on to the next shard. The reader section
// is one bounded core.Table.ScanFrom call, so a tick costs the same
// on a cache of a thousand entries or ten million.
func (c *Cache[K, V]) sweepTick(p *sweepPos) int {
	if p.cursors == nil {
		p.cursors = make([]uint64, c.m.NumShards())
	}
	i := p.shard
	p.shard = (i + 1) % len(p.cursors)

	now := c.clk.Nanos()
	type victim struct {
		k K
		e *entry[V]
	}
	var victims []victim
	scanned := 0
	p.cursors[i] = c.m.Shard(i).ScanFrom(p.cursors[i], sweepScanUnits, func(k K, e *entry[V]) bool {
		if e.expireAt != 0 && e.expireAt <= now {
			victims = append(victims, victim{k, e})
		}
		scanned++
		return scanned < sweepBatch
	})
	c.sweepScanned.Add(uint64(scanned))
	n := 0
	for _, v := range victims {
		if c.reclaim(v.k, v.e) {
			n++
		}
	}
	return n
}

// runSweeper is the background expiry pass: one budgeted sweepTick
// per interval, so reclamation is amortized and no tick stalls on a
// scan of a whole shard. Besides its own stop channel it watches
// the map's RCU domain Done: if the domain shuts down first (a
// shared-domain fleet closing, or a bug ordering teardown wrong),
// the sweeper exits promptly instead of discovering closure by
// tripping over a post-Close Defer on its next removal — each of
// which would stall a full synchronous grace period.
func (c *Cache[K, V]) runSweeper(interval time.Duration) {
	defer c.sweepWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	var pos sweepPos
	for {
		select {
		case <-c.sweepStop:
			return
		case <-c.m.Domain().Done():
			return
		case <-t.C:
			c.sweepTick(&pos)
		}
	}
}

// Purge drops every entry (live and expired) and returns the count
// removed. Purged entries are counted as neither evictions nor
// expirations; cost accounting returns to the concurrent baseline.
// It works through the cache in bounded chunks (RangeChunked), so it
// holds neither a reader section nor a key list proportional to the
// cache; entries stored while it runs may or may not be dropped.
func (c *Cache[K, V]) Purge() int {
	n := 0
	c.m.RangeChunked(0, func(k K, _ *entry[V]) bool {
		if e, ok := c.m.CompareAndDelete(k, nil); ok {
			c.cost.Add(-e.cost)
			n++
			if c.afterPurgeDelete != nil {
				c.afterPurgeDelete(k)
			}
		}
		return true
	})
	return n
}
