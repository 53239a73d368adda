package cache

import (
	"fmt"

	"rphash/internal/shard"
)

// Stats is a point-in-time snapshot of cache metrics, aggregated
// across shards. Map carries the underlying hash-map observability
// (bucket totals, load factor, resize counts — map-wide and per
// shard).
type Stats struct {
	Hits        uint64 // live-entry Gets
	Misses      uint64 // absent or expired Gets
	Loads       uint64 // successful GetOrLoad backend loads
	LoadErrors  uint64 // failed GetOrLoad backend loads (not cached)
	Evictions   uint64 // live entries removed for capacity
	Expirations uint64 // expired entries reclaimed (sweep, eviction, delete)
	Entries     int    // current entry count (incl. expired, unreclaimed)
	Cost        int64  // current cost total
	MaxCost     int64  // configured budget (<= 0 = unbounded)
	Map         shard.MapStats

	// Entries examined by eviction sampling (about the sample size per
	// victim, whatever the cache's size) and by the background
	// sweeper's ticks.
	EvictScanned uint64
	SweepScanned uint64
}

// Stats gathers a snapshot. It walks every bucket (for MaxChain); on
// huge caches prefer cheaper spot metrics via Len/Cost/Buckets.
func (c *Cache[K, V]) Stats() Stats {
	ms := c.m.DetailedStats()
	return Stats{
		Hits:        c.hits.Total(),
		Misses:      c.misses.Total(),
		Loads:       c.loads.Load(),
		LoadErrors:  c.loadErrors.Load(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
		Entries:     ms.Len,
		Cost:        c.cost.Load(),
		MaxCost:     c.maxCost,
		Map:         ms,

		EvictScanned: c.evictScanned.Load(),
		SweepScanned: c.sweepScanned.Load(),
	}
}

// Counters is Stats without the bucket walk: every field comes from
// O(1) (or O(stripes)) counter reads, and Map is left zero. Serving
// paths that poll stats on every request (memcached's `stats`
// command) use this; Stats is for monitoring that wants per-shard
// chain depth too.
func (c *Cache[K, V]) Counters() Stats {
	return Stats{
		Hits:        c.hits.Total(),
		Misses:      c.misses.Total(),
		Loads:       c.loads.Load(),
		LoadErrors:  c.loadErrors.Load(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
		Entries:     c.m.Len(),
		Cost:        c.cost.Load(),
		MaxCost:     c.maxCost,

		EvictScanned: c.evictScanned.Load(),
		SweepScanned: c.sweepScanned.Load(),
	}
}

// HitRatio returns hits/(hits+misses), or 0 before any lookups.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders the headline numbers.
func (s Stats) String() string {
	return fmt.Sprintf("entries=%d cost=%d/%d hits=%d misses=%d (%.1f%%) loads=%d evictions=%d expirations=%d buckets=%d shards=%d",
		s.Entries, s.Cost, s.MaxCost, s.Hits, s.Misses, 100*s.HitRatio(),
		s.Loads, s.Evictions, s.Expirations, s.Map.Buckets, len(s.Map.PerShard))
}
