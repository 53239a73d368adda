package shard

import (
	"sync/atomic"
	"testing"
)

// BenchmarkWriteMapUpsert is the map-level companion of the core
// write benchmarks picked up by `make bench-write`: concurrent
// upserts through the full route (hash once, shard dispatch, striped
// table write).
func BenchmarkWriteMapUpsert(b *testing.B) {
	m := NewUint64[int](WithInitialBuckets(8192))
	defer m.Close()
	const keySpace = 16384
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seq.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			x += 0x9e3779b97f4a7c15
			k := (x ^ x>>31) % keySpace
			m.Set(k, int(k))
		}
	})
}

// Shard-diet sweep (`make bench-shards`): with striped tables
// carrying write parallelism, do memcache/cache-shaped workloads
// still want more than one shard? The pairs below hold everything
// constant except the shard count (1 vs DefaultShards) on the two
// workloads that matter — pure upserts and a 90/10 read/write mix —
// benchstat-ready so the README's "shard-layer diet" note is a
// measurement, not a guess.

func benchmarkShardsUpsert(b *testing.B, shards int) {
	m := NewUint64[int](WithShards(shards), WithInitialBuckets(8192))
	defer m.Close()
	const keySpace = 16384
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seq.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			x += 0x9e3779b97f4a7c15
			k := (x ^ x>>31) % keySpace
			m.Set(k, int(k))
		}
	})
}

func benchmarkShardsMixed(b *testing.B, shards int) {
	m := NewUint64[int](WithShards(shards), WithInitialBuckets(8192))
	defer m.Close()
	const keySpace = 16384
	for k := uint64(0); k < keySpace; k++ {
		m.Set(k, int(k))
	}
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := m.NewReadHandle()
		defer h.Close()
		x := seq.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			x += 0x9e3779b97f4a7c15
			k := (x ^ x>>31) % keySpace
			if x%10 == 0 {
				m.Set(k, int(k))
			} else {
				h.Get(k)
			}
		}
	})
}

func BenchmarkShardsUpsert1(b *testing.B)       { benchmarkShardsUpsert(b, 1) }
func BenchmarkShardsUpsertDefault(b *testing.B) { benchmarkShardsUpsert(b, DefaultShards()) }
func BenchmarkShardsMixed1(b *testing.B)        { benchmarkShardsMixed(b, 1) }
func BenchmarkShardsMixedDefault(b *testing.B)  { benchmarkShardsMixed(b, DefaultShards()) }

// BenchmarkWriteMapSetBatch100 drives the shard-grouped,
// sorted-stripe batch write path end to end.
func BenchmarkWriteMapSetBatch100(b *testing.B) {
	m := NewUint64[int](WithInitialBuckets(8192))
	defer m.Close()
	const batch = 100
	const keySpace = 16384
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seq.Add(1) * 0x9e3779b97f4a7c15
		ks := make([]uint64, batch)
		vs := make([]int, batch)
		for pb.Next() {
			for i := range ks {
				x += 0x9e3779b97f4a7c15
				ks[i] = (x ^ x>>31) % keySpace
				vs[i] = int(ks[i])
			}
			m.SetBatch(ks, vs)
		}
	})
}
