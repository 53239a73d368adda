package cache

import (
	"testing"
	"time"
)

// BenchmarkCacheGetHit guards the zero-allocation hit path: a hit is
// one lock-free chain walk plus the coarse-clock expiry check and
// recency stamp. Run with -benchmem; allocs/op must stay 0.
func BenchmarkCacheGetHit(b *testing.B) {
	c := NewUint64[uint64](WithSweepInterval(0), WithTTL(time.Hour))
	defer c.Close()
	const keys = 1024
	for i := uint64(0); i < keys; i++ {
		c.Set(i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(uint64(i) & (keys - 1)); !ok {
			b.Fatal("miss on preloaded key")
		}
	}
}

// BenchmarkCacheGetterHit is the registered-read-handle flavor the
// long-lived reader goroutines use; also required to stay 0 allocs.
func BenchmarkCacheGetterHit(b *testing.B) {
	c := NewUint64[uint64](WithSweepInterval(0), WithTTL(time.Hour))
	defer c.Close()
	const keys = 1024
	for i := uint64(0); i < keys; i++ {
		c.Set(i, i)
	}
	get, release := c.NewGetter()
	defer release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := get(uint64(i) & (keys - 1)); !ok {
			b.Fatal("miss on preloaded key")
		}
	}
}

// BenchmarkCacheGetMultiHit guards the batched hit path: after
// warm-up (pooled scratch, pooled reader) a whole batch must stay at
// 0 allocs/op, with the reader-section, clock, and counter costs
// amortized across the batch. ns/op is per 64-key batch.
func BenchmarkCacheGetMultiHit(b *testing.B) {
	c := NewUint64[uint64](WithSweepInterval(0), WithTTL(time.Hour))
	defer c.Close()
	const keys = 1024
	for i := uint64(0); i < keys; i++ {
		c.Set(i, i)
	}
	const batch = 64
	ks := make([]uint64, batch)
	vals := make([]uint64, batch)
	oks := make([]bool, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ks {
			ks[j] = uint64(i+j) & (keys - 1)
		}
		c.GetMulti(ks, vals, oks)
		if !oks[0] {
			b.Fatal("miss on preloaded key")
		}
	}
}

// BenchmarkCacheGetOrLoadHit measures the stampede-protected read on
// the hit path (no flight is created on a hit).
func BenchmarkCacheGetOrLoadHit(b *testing.B) {
	c := NewUint64[uint64](WithSweepInterval(0))
	defer c.Close()
	c.Set(1, 1)
	load := func() (uint64, error) { return 1, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetOrLoad(1, load); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSet measures the write path including accounting.
func BenchmarkCacheSet(b *testing.B) {
	c := NewUint64[uint64](WithSweepInterval(0))
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Set(uint64(i)&4095, uint64(i))
	}
}

// BenchmarkCacheSetEvict measures a Set that evicts: the cache is
// preloaded to its budget, so every measured insert of a new key pays
// for one victim sample and one removal. The two sizes differ 64× in
// entries per shard; ns/op must not (eviction is O(sample), not
// O(shard)).
func BenchmarkCacheSetEvict(b *testing.B) {
	for _, bc := range []struct {
		name    string
		entries uint64
	}{{"4k", 4 << 10}, {"256k", 256 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			c := NewUint64[uint64](WithSweepInterval(0), WithShards(1),
				WithMaxCost(int64(bc.entries)), WithInitialBuckets(bc.entries))
			defer c.Close()
			for i := uint64(0); i < bc.entries; i++ {
				c.Set(i, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Set(bc.entries+uint64(i), uint64(i))
			}
			b.StopTimer()
			st := c.Counters()
			if st.Evictions != uint64(b.N) {
				b.Fatalf("evictions = %d, want %d", st.Evictions, b.N)
			}
			b.ReportMetric(float64(st.EvictScanned)/float64(st.Evictions), "scanned/evict")
		})
	}
}
