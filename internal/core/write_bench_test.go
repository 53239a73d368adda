package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Write-path benchmarks for `make bench-write` / benchstat
// comparisons across PRs. The Striped/SingleLock pair is the
// microbenchmark form of figure 5 and ablation A5: identical tables
// and workloads, only the writer-lock granularity differs. Run with
// -cpu to sweep writer parallelism, e.g.
//
//	go test -run '^$' -bench WriteUpsert -cpu 1,2,4,8 ./internal/core
func benchmarkWriteUpsert(b *testing.B, opts ...Option) {
	opts = append([]Option{WithInitialBuckets(8192)}, opts...)
	tbl := NewUint64[int](opts...)
	defer tbl.Close()
	const keySpace = 16384
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// splitmix-style per-goroutine stream, disjoint seeds.
		x := seq.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			x += 0x9e3779b97f4a7c15
			k := (x ^ x>>31) % keySpace
			tbl.Set(k, int(k))
		}
	})
}

// BenchmarkWriteUpsertStriped: default per-bucket writer stripes.
func BenchmarkWriteUpsertStriped(b *testing.B) {
	benchmarkWriteUpsert(b)
}

// BenchmarkWriteUpsertSingleLock: WithStripes(1) — the paper's
// single writer mutex, the ablation baseline.
func BenchmarkWriteUpsertSingleLock(b *testing.B) {
	benchmarkWriteUpsert(b, WithStripes(1))
}

// BenchmarkWriteMixedStriped adds deletes (and hence unlink +
// retirement traffic) to the striped write path.
func BenchmarkWriteMixedStriped(b *testing.B) {
	tbl := NewUint64[int](WithInitialBuckets(8192))
	defer tbl.Close()
	const keySpace = 16384
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seq.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			x += 0x9e3779b97f4a7c15
			k := (x ^ x>>31) % keySpace
			if x&7 == 0 {
				tbl.Delete(k)
			} else {
				tbl.Set(k, int(k))
			}
		}
	})
}

// BenchmarkWriteChurn is the repository benchmark's lib-churn mix at
// steady state: 2 goroutines on disjoint key ranges, each sliding a
// FIFO window of live keys (40 % insert at the front, 40 % delete at
// the back, 20 % get inside) over a fixed-size table. An insert
// allocates its node and value box and a delete nothing, so -benchmem
// shows any per-write garbage; deferred/op and grace/op show any work
// the writes hand to the RCU domain (none: the table never resizes
// here, and chain writes queue nothing).
func BenchmarkWriteChurn(b *testing.B) {
	const writers = 2
	const window = 1 << 15 // live keys per writer at the start
	tbl := NewUint64[uint64](WithInitialBuckets(writers * window))
	defer tbl.Close()
	for w := uint64(0); w < writers; w++ {
		for k := w << 40; k < w<<40+window; k++ {
			tbl.Set(k, k)
		}
	}
	before := tbl.Domain().Stats()
	var hits atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := uint64(0); w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			lo, hi := w<<40, w<<40+window
			x := (w + 1) * 0x9e3779b97f4a7c15
			var found uint64
			for i := w; i < uint64(b.N); i += writers {
				x += 0x9e3779b97f4a7c15
				r := (x ^ x>>31) % 5
				switch {
				case r < 2 || lo == hi:
					tbl.Insert(hi, hi)
					hi++
				case r < 4:
					tbl.Delete(lo)
					lo++
				default:
					if _, ok := tbl.Get(lo + (x>>33)%(hi-lo)); ok {
						found++
					}
				}
			}
			hits.Add(found)
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	after := tbl.Domain().Stats()
	b.ReportMetric(float64(after.Deferred-before.Deferred)/float64(b.N), "deferred/op")
	b.ReportMetric(float64(after.GracePeriods-before.GracePeriods)/float64(b.N), "grace/op")
	if b.N > 1000 && hits.Load() == 0 {
		b.Fatal("no get hit a live key")
	}
}

// BenchmarkWriteContendedResize measures writer throughput while a
// resizer continuously toggles the table — the stall the striped
// scheme shrinks from "the whole resize" to "the array swap phases
// plus my stripe's migration batches".
func BenchmarkWriteContendedResize(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs >= 2 procs to overlap writers with a resizer")
	}
	tbl := NewUint64[int](WithInitialBuckets(4096))
	defer tbl.Close()
	for i := uint64(0); i < 8192; i++ {
		tbl.Set(i, int(i))
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tbl.ExpandOnce()
			tbl.ShrinkOnce()
		}
	}()
	const keySpace = 16384
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seq.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			x += 0x9e3779b97f4a7c15
			k := (x ^ x>>31) % keySpace
			tbl.Set(k, int(k))
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkWriteSetBatch100 measures the sorted-stripe batch path:
// 100 upserts per op, at most one lock hold per touched stripe.
func BenchmarkWriteSetBatch100(b *testing.B) {
	tbl := NewUint64[int](WithInitialBuckets(8192))
	defer tbl.Close()
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
			tbl.SetBatch(ks, vs)
		}
	})
}

// Flat-engine write benchmarks. A flat cell holds its value inline, so
// an insert allocates nothing; a replace allocates the one box it
// publishes (-benchmem shows both).

// BenchmarkWriteFlatInsert inserts fresh keys into a growing flat
// table (DefaultPolicy, from 64 groups to 64 k keys, then a new
// table), so the auto-resizes the inserts trigger are paid for here.
func BenchmarkWriteFlatInsert(b *testing.B) {
	const perTable = 1 << 16
	opts := []Option{WithEngine(EngineFlat), WithPolicy(DefaultPolicy())}
	tbl := NewUint64[uint64](opts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perTable == perTable-1 {
			b.StopTimer()
			tbl.Close()
			tbl = NewUint64[uint64](opts...)
			b.StartTimer()
		}
		k := uint64(i)
		tbl.Insert(k, k)
	}
	b.StopTimer()
	tbl.Close()
}

// BenchmarkWriteFlatReplace replaces values of 64 k keys in a fixed
// table of 16 k groups (load 4), uniformly at random. spill is
// Stats().FlatSpillRatio() after at least 1 M replaces (topped up
// untimed when b.N is smaller): replaces must not push elements out of
// their groups.
func BenchmarkWriteFlatReplace(b *testing.B) {
	const keys, groups, replaces = 1 << 16, 1 << 14, 1 << 20
	tbl := NewUint64[uint64](WithEngine(EngineFlat), WithInitialBuckets(groups), WithPolicy(Policy{MinBuckets: groups}))
	defer tbl.Close()
	for k := uint64(0); k < keys; k++ {
		tbl.Set(k, k)
	}
	x := uint64(0x9e3779b97f4a7c15)
	replace := func() {
		x += 0x9e3779b97f4a7c15
		k := (x ^ x>>31) % keys
		tbl.Set(k, x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replace()
	}
	b.StopTimer()
	for i := b.N; i < replaces; i++ {
		replace()
	}
	b.ReportMetric(tbl.Stats().FlatSpillRatio(), "spill")
}

// BenchmarkWriteFlatResizeString times one copy-based resize step of a
// flat table holding 64 k string keys, between 16 k and 32 k groups:
// expand recomputes each key's hash to split groups, shrink merges
// them without hashing. ns/elem is the step's time per element.
func BenchmarkWriteFlatResizeString(b *testing.B) {
	const keys, small = 1 << 16, 1 << 14
	ks := make([]string, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("key-%d", i)
	}
	run := func(b *testing.B, groups uint64, step func(*Table[string, int])) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tbl := NewString[int](WithEngine(EngineFlat), WithInitialBuckets(groups), WithPolicy(Policy{MinBuckets: small}))
			for j, k := range ks {
				tbl.Set(k, j)
			}
			runtime.GC() // time the copy, not a collection the preload left due
			b.StartTimer()
			step(tbl)
			b.StopTimer()
			tbl.Close()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/elem")
	}
	b.Run("expand", func(b *testing.B) { run(b, small, (*Table[string, int]).ExpandOnce) })
	b.Run("shrink", func(b *testing.B) { run(b, 2*small, (*Table[string, int]).ShrinkOnce) })
}
