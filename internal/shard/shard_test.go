package shard

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rphash/internal/core"
	"rphash/internal/hashfn"
	"rphash/internal/rcu"
)

func newM(t testing.TB, opts ...Option) *Map[uint64, int] {
	t.Helper()
	m := NewUint64[int](opts...)
	t.Cleanup(m.Close)
	return m
}

func TestShardShift(t *testing.T) {
	cases := []struct {
		shards uint64
		shift  uint
	}{{1, 64}, {2, 63}, {4, 62}, {8, 61}, {256, 56}}
	for _, c := range cases {
		if got := shardShift(c.shards); got != c.shift {
			t.Errorf("shardShift(%d) = %d, want %d", c.shards, got, c.shift)
		}
	}
	// One shard: every hash, including ^0, must route to index 0.
	if idx := ^uint64(0) >> shardShift(1); idx != 0 {
		t.Fatalf("all-ones hash routed to shard %d with 1 shard", idx)
	}
}

func TestPerShard(t *testing.T) {
	if got := perShard(1024, 4); got != 256 {
		t.Errorf("perShard(1024,4) = %d, want 256", got)
	}
	if got := perShard(2, 8); got != 1 {
		t.Errorf("perShard(2,8) = %d, want 1 (floor)", got)
	}
	if got := perShard(1000, 4); got != 256 {
		t.Errorf("perShard(1000,4) = %d, want 256 (rounds total up first)", got)
	}
}

func TestBasicOps(t *testing.T) {
	m := newM(t, WithShards(8))
	if m.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", m.NumShards())
	}
	if !m.Set(1, 100) {
		t.Fatal("first Set should insert")
	}
	if m.Set(1, 200) {
		t.Fatal("second Set should replace")
	}
	if v, ok := m.Get(1); !ok || v != 200 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	if m.Insert(1, 300) {
		t.Fatal("Insert of present key succeeded")
	}
	if !m.Replace(1, 400) {
		t.Fatal("Replace of present key failed")
	}
	if m.Replace(2, 1) {
		t.Fatal("Replace of absent key succeeded")
	}
	if !m.Contains(1) || m.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if !m.Delete(1) || m.Delete(1) {
		t.Fatal("Delete wrong")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
}

// TestCrossShardLenRangeKeys verifies that aggregate views span every
// shard: Len sums, Range visits each element exactly once across
// shard boundaries and honors early stop, Keys snapshots everything.
func TestCrossShardLenRangeKeys(t *testing.T) {
	m := newM(t, WithShards(8))
	const n = 4096
	for i := uint64(0); i < n; i++ {
		m.Set(i, int(i))
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}

	// Every shard should hold a nontrivial share under splitmix64.
	for i := 0; i < m.NumShards(); i++ {
		if l := m.Shard(i).Len(); l < n/m.NumShards()/2 {
			t.Errorf("shard %d holds %d elements; distribution badly skewed", i, l)
		}
	}

	seen := make(map[uint64]int, n)
	m.Range(func(k uint64, v int) bool {
		if v != int(k) {
			t.Fatalf("Range value for %d = %d", k, v)
		}
		seen[k]++
		return true
	})
	if len(seen) != n {
		t.Fatalf("Range visited %d distinct keys, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("Range visited key %d %d times", k, c)
		}
	}

	visited := 0
	m.Range(func(uint64, int) bool {
		visited++
		return visited < 10
	})
	if visited != 10 {
		t.Fatalf("early-stop Range visited %d, want 10", visited)
	}

	if got := len(m.Keys()); got != n {
		t.Fatalf("Keys len = %d, want %d", got, n)
	}
}

// findCrossShardPair returns two keys routed to different shards (and
// a same-shard pair) for Move tests.
func findPairs(m *Map[uint64, int]) (crossA, crossB, sameA, sameB uint64) {
	hash := func(k uint64) uint64 { return hashfn.Uint64(k, 0) }
	shardOf := func(k uint64) uint64 { return hash(k) >> m.shift }
	crossA = 0
	for k := uint64(1); ; k++ {
		if shardOf(k) != shardOf(crossA) {
			crossB = k
			break
		}
	}
	for k := uint64(1); ; k++ {
		if k != crossA && shardOf(k) == shardOf(sameA) {
			sameB = k
			break
		}
	}
	return
}

func TestMoveSameAndCrossShard(t *testing.T) {
	m := newM(t, WithShards(8))
	crossA, crossB, sameA, sameB := findPairs(m)

	m.Set(sameA, 1)
	if !m.Move(sameA, sameB) {
		t.Fatal("same-shard Move failed")
	}
	if _, ok := m.Get(sameA); ok {
		t.Fatal("same-shard Move left source")
	}
	if v, ok := m.Get(sameB); !ok || v != 1 {
		t.Fatalf("same-shard Move target = %d,%v", v, ok)
	}
	m.Delete(sameB)

	m.Set(crossA, 2)
	if !m.Move(crossA, crossB) {
		t.Fatal("cross-shard Move failed")
	}
	if _, ok := m.Get(crossA); ok {
		t.Fatal("cross-shard Move left source")
	}
	if v, ok := m.Get(crossB); !ok || v != 2 {
		t.Fatalf("cross-shard Move target = %d,%v", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}

	if m.Move(999, 1000) {
		t.Fatal("Move of absent key succeeded")
	}
	m.Set(crossA, 3)
	if m.Move(crossA, crossB) {
		t.Fatal("Move onto existing key succeeded")
	}
	if v, _ := m.Get(crossB); v != 2 {
		t.Fatal("failed Move corrupted target")
	}
}

// TestPolicyDrivenPerShardResize checks that a map-level policy
// expands each shard independently as its own load crosses the
// watermark.
func TestPolicyDrivenPerShardResize(t *testing.T) {
	m := newM(t, WithShards(4),
		WithInitialBuckets(4*8),
		WithPolicy(core.Policy{MaxLoad: 2, MinLoad: 0.25, MinBuckets: 4 * 8}))
	const n = 4096
	for i := uint64(0); i < n; i++ {
		m.Set(i, int(i))
	}
	// Auto-resize is asynchronous; wait for every shard to settle
	// under the watermark.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for i := 0; i < m.NumShards(); i++ {
			s := m.Shard(i)
			if float64(s.Len()) > 2*float64(s.Buckets()) {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards never expanded under load: %v", m.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st := m.Stats()
	if st.AutoGrows == 0 || st.Expands == 0 {
		t.Fatalf("expected auto-grown shards, stats: %v", st)
	}
	for i := 0; i < m.NumShards(); i++ {
		if b := m.Shard(i).Buckets(); b <= 8 {
			t.Errorf("shard %d still at %d buckets", i, b)
		}
	}
}

// TestStatsAggregation: counters sum across shards; Len/Buckets
// recompute the map-wide load factor.
func TestStatsAggregation(t *testing.T) {
	m := newM(t, WithShards(4))
	for i := uint64(0); i < 100; i++ {
		m.Set(i, 1)
	}
	for i := uint64(0); i < 50; i++ {
		m.Delete(i)
	}
	st := m.Stats()
	if st.Inserts != 100 || st.Deletes != 50 || st.Len != 50 {
		t.Fatalf("aggregate stats wrong: %v", st)
	}
	if st.Buckets == 0 || st.LoadFactor != float64(st.Len)/float64(st.Buckets) {
		t.Fatalf("load factor not recomputed: %v", st)
	}
}

// TestSharedDomain: an externally supplied domain is shared by every
// shard and survives Map.Close.
func TestSharedDomain(t *testing.T) {
	dom := rcu.NewDomain()
	defer dom.Close()
	m := NewUint64[int](WithShards(4), WithDomain(dom))
	if m.Domain() != dom {
		t.Fatal("map did not adopt the shared domain")
	}
	for i := 0; i < m.NumShards(); i++ {
		if m.Shard(i).Domain() != dom {
			t.Fatalf("shard %d has a private domain", i)
		}
	}
	m.Set(1, 1)
	m.Close()
	// The shared domain must still be usable after Map.Close.
	dom.Synchronize()
}

// TestReadHandleSpansShards: one handle, keys from every shard.
func TestReadHandleSpansShards(t *testing.T) {
	m := newM(t, WithShards(8))
	const n = 1024
	for i := uint64(0); i < n; i++ {
		m.Set(i, int(i))
	}
	h := m.NewReadHandle()
	defer h.Close()
	for i := uint64(0); i < n; i++ {
		if v, ok := h.Get(i); !ok || v != int(i) {
			t.Fatalf("handle Get(%d) = %d,%v", i, v, ok)
		}
	}
	if h.Contains(n + 1) {
		t.Fatal("handle found absent key")
	}
}

// TestTortureLookupsDuringShardResize mirrors
// core.TestTortureLookupsDuringContinuousResize at the map level:
// stable keys must never be missed by handle lookups while every
// shard continuously doubles and halves and writers churn a disjoint
// volatile range across shards.
func TestTortureLookupsDuringShardResize(t *testing.T) {
	m := newM(t, WithShards(4), WithInitialBuckets(4*64))
	const stable = 2048
	const volatileBase = 1 << 20
	for i := uint64(0); i < stable; i++ {
		m.Set(i, int(i))
	}

	stop := make(chan struct{})
	var misses atomic.Int64
	var lookups atomic.Int64
	var wg sync.WaitGroup

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := m.NewReadHandle()
			defer h.Close()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(stable))
				if v, ok := h.Get(k); !ok || v != int(k) {
					misses.Add(1)
				}
				lookups.Add(1)
			}
		}(int64(g))
	}

	// Writer churn on a volatile range, hitting all shards.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 100))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := volatileBase + uint64(rng.Intn(4096))
				switch rng.Intn(3) {
				case 0:
					m.Set(k, int(k))
				case 1:
					m.Delete(k)
				case 2:
					m.Move(k, k+1000000)
				}
			}
		}(int64(g))
	}

	// Resizer: toggle the whole map between two total sizes.
	deadline := time.Now().Add(1200 * time.Millisecond)
	cycles := 0
	for time.Now().Before(deadline) {
		m.Resize(4 * 1024)
		m.Resize(4 * 64)
		cycles++
	}
	close(stop)
	wg.Wait()

	if cycles < 2 {
		t.Skipf("machine too slow to complete resize cycles (%d)", cycles)
	}
	if n := misses.Load(); n != 0 {
		t.Fatalf("%d/%d lookups missed a stable key during %d map resize cycles",
			n, lookups.Load(), cycles)
	}
	// Stable range fully intact afterwards.
	for i := uint64(0); i < stable; i++ {
		if v, ok := m.Get(i); !ok || v != int(i) {
			t.Fatalf("stable key %d = %d,%v after churn", i, v, ok)
		}
	}
	t.Logf("%d lookups across %d resize cycles, 0 misses", lookups.Load(), cycles)
}

// TestConcurrentWritersLand mirrors core.TestConcurrentWritersSerialize:
// distinct-key writers on all shards; every write must land.
func TestConcurrentWritersLand(t *testing.T) {
	m := newM(t, WithShards(8))
	const perWriter = 2000
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < perWriter; i++ {
				m.Set(base+i, int(base+i))
			}
		}(uint64(w) * 1_000_000)
	}
	wg.Wait()
	if got, want := m.Len(), writers*perWriter; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for w := 0; w < writers; w++ {
		base := uint64(w) * 1_000_000
		for i := uint64(0); i < perWriter; i += 37 {
			if v, ok := m.Get(base + i); !ok || v != int(base+i) {
				t.Fatalf("Get(%d) = %d,%v", base+i, v, ok)
			}
		}
	}
}

// TestTortureSetSameFreshKeys is the Set-level twin of core's
// TestStripedInsertMeetsCASRival: writers Set the same fresh keys
// while the map resizes back and forth, so some of them take the
// striped path (a resize window is open) just as another lands the
// same key lock-free. Every key must end up with exactly one entry:
// a duplicate would show as Len above the key count, and as a key
// that Range visits twice.
func TestTortureSetSameFreshKeys(t *testing.T) {
	m := newM(t, WithShards(2), WithInitialBuckets(64))
	const keys, writers, rounds = 4096, 4, 5
	stop := make(chan struct{})
	var resizer sync.WaitGroup
	resizer.Add(1)
	go func() {
		defer resizer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Resize(keys)
			m.Resize(64)
		}
	}()
	defer func() {
		close(stop)
		resizer.Wait()
	}()
	for r := 0; r < rounds; r++ {
		base := uint64(r) * keys
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for k := base; k < base+keys; k++ {
					m.Set(k, id)
				}
			}(w)
		}
		wg.Wait()
		if got, want := m.Len(), (r+1)*keys; got != want {
			t.Fatalf("round %d: Len = %d, want %d", r, got, want)
		}
		seen := make(map[uint64]bool, (r+1)*keys)
		m.Range(func(k uint64, _ int) bool {
			if seen[k] {
				t.Fatalf("round %d: key %d has two entries", r, k)
			}
			seen[k] = true
			return true
		})
	}
}
