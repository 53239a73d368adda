package cache

import (
	"fmt"
	"testing"
	"time"

	"rphash/internal/core"
)

// TestEvictionCostIndependentOfSize: an eviction examines at most the
// sample, whether the shard holds a thousand entries or sixty-four
// thousand — the visit count behind BenchmarkCacheSetEvict's flat
// ns/op.
func TestEvictionCostIndependentOfSize(t *testing.T) {
	for _, entries := range []int{1 << 10, 1 << 16} {
		c := NewUint64[int](WithSweepInterval(0), WithShards(1), WithMaxCost(int64(entries)))
		for i := 0; i < entries; i++ {
			c.Set(uint64(i), i)
		}
		if st := c.Counters(); st.Evictions != 0 || st.EvictScanned != 0 {
			t.Fatalf("%d entries: evicted %d (scanned %d) while filling to the budget", entries, st.Evictions, st.EvictScanned)
		}
		const extra = 2000
		for i := 0; i < extra; i++ {
			c.Set(uint64(entries+i), i)
		}
		st := c.Counters()
		if st.Evictions != extra {
			t.Fatalf("%d entries: Evictions = %d, want %d", entries, st.Evictions, extra)
		}
		if limit := uint64(extra * defaultSample); st.EvictScanned > limit {
			t.Fatalf("%d entries: %d evictions examined %d entries, want <= %d (sample %d each)",
				entries, st.Evictions, st.EvictScanned, limit, defaultSample)
		}
		c.Close()
	}
}

// TestEvictionGivesUpOnSparseShard: one oversized entry in a large,
// pinned bucket array. A victim sample walks at most evictScanUnits
// buckets from its random start, so most samples find nothing and the
// writer bails out after a rotation instead of walking the array; a
// later writer's fresh start does find it.
func TestEvictionGivesUpOnSparseShard(t *testing.T) {
	c := NewUint64[int](WithSweepInterval(0), WithShards(1), WithMaxCost(50),
		WithInitialBuckets(1<<16), WithPolicy(core.Policy{}))
	defer c.Close()
	const sets = 2000
	evicted := 0
	for i := 0; i < sets; i++ {
		c.SetWith(1, i, 0, 100) // over budget on its own
		if c.Len() == 0 {
			evicted++
		}
	}
	if evicted == 0 || evicted > sets/4 {
		t.Fatalf("the lone entry was evicted after %d of %d sets; %d-bucket windows of %d should find it now and then, not always",
			evicted, sets, evictScanUnits, 1<<16)
	}
	if st := c.Counters(); st.EvictScanned < uint64(evicted) || st.EvictScanned > uint64(evictWindows*evicted) {
		t.Fatalf("EvictScanned = %d after %d evictions of the only entry", st.EvictScanned, evicted)
	}
}

// TestSampledLRUKeepsHotSet: victim quality. A hot set three quarters
// the size of the budget, read every round, must mostly survive four
// budgets' worth of cold inserts: a sample removes its stalest entry,
// so an entry stamped this round is lost only to a sample holding
// nothing older. The schedule is deterministic (manual clock, counter-
// seeded sample starts). The floor is what a sample drawn uniformly
// from the whole shard keeps on it (0.850 measured) plus a margin; one
// run of consecutive buckets from a random bucket keeps 0.79,
// evictWindows runs keep 0.916.
func TestSampledLRUKeepsHotSet(t *testing.T) {
	const (
		budget = 4096
		hot    = 3072
		perRnd = 256
		rounds = 4 * budget / perRnd
	)
	c, clk := newManual(t, WithShards(4), WithMaxCost(budget))
	hotKey := func(i int) string { return fmt.Sprintf("hot-%04d", i) }
	for i := 0; i < hot; i++ {
		c.Set(hotKey(i), "v")
	}
	cold := 0
	for r := 0; r < rounds; r++ {
		clk.Advance(time.Second)
		for i := 0; i < hot; i++ {
			c.Get(hotKey(i))
		}
		for i := 0; i < perRnd; i++ {
			c.Set(fmt.Sprintf("cold-%07d", cold), "v")
			cold++
		}
	}
	alive := 0
	for i := 0; i < hot; i++ {
		if c.Contains(hotKey(i)) {
			alive++
		}
	}
	rate := float64(alive) / hot
	t.Logf("hot survivors: %d of %d (%.3f) after %d cold inserts into a budget of %d", alive, hot, rate, cold, budget)
	if rate < 0.88 {
		t.Fatalf("hot-set survival %.3f, want >= 0.88 (a uniform sample's 0.85 and a margin)", rate)
	}
}

// TestSweepTickBudget: one background tick examines at most
// sweepBatch entries however large the shard, and successive ticks
// work through every shard until everything expired is reclaimed.
func TestSweepTickBudget(t *testing.T) {
	const expiring, permanent = 20_000, 1_000
	c, clk := newManual(t, WithShards(2))
	for i := 0; i < expiring; i++ {
		c.SetTTL(fmt.Sprintf("ttl-%05d", i), "v", time.Second)
	}
	for i := 0; i < permanent; i++ {
		c.Set(fmt.Sprintf("keep-%05d", i), "v")
	}
	clk.Advance(2 * time.Second)

	var pos sweepPos
	// A full pass is entries/sweepBatch ticks, plus one per shard for
	// the partial last visit; twice that is generous.
	maxTicks := 2 * ((expiring+permanent)/sweepBatch + c.NumShards())
	ticks := 0
	for ; c.Len() > permanent; ticks++ {
		if ticks == maxTicks {
			t.Fatalf("%d entries still unreclaimed after %d ticks", c.Len()-permanent, ticks)
		}
		before := c.Counters().SweepScanned
		removed := c.sweepTick(&pos)
		if scanned := c.Counters().SweepScanned - before; scanned > sweepBatch || uint64(removed) > scanned {
			t.Fatalf("tick %d examined %d entries and removed %d, budget %d", ticks, scanned, removed, sweepBatch)
		}
	}
	if st := c.Counters(); st.Expirations != expiring || st.Cost != permanent {
		t.Fatalf("after %d ticks: Expirations = %d, Cost = %d; want %d, %d", ticks, st.Expirations, st.Cost, expiring, permanent)
	}
	if n := c.SweepExpired(100); n != 0 {
		t.Fatalf("SweepExpired found %d more after the ticks", n)
	}
}

// TestSweepExpiredHonorsLimit: the synchronous pass stops at its
// limit and a later call picks up the rest.
func TestSweepExpiredHonorsLimit(t *testing.T) {
	c, clk := newManual(t, WithShards(2))
	for i := 0; i < 5000; i++ {
		c.SetTTL(fmt.Sprintf("ttl-%04d", i), "v", time.Second)
	}
	clk.Advance(2 * time.Second)
	if n := c.SweepExpired(10); n != 10 {
		t.Fatalf("SweepExpired(10) = %d", n)
	}
	if n := c.SweepExpired(1 << 20); n != 4990 {
		t.Fatalf("SweepExpired(rest) = %d, want 4990", n)
	}
	if c.Len() != 0 || c.Cost() != 0 {
		t.Fatalf("Len=%d Cost=%d after sweeping everything", c.Len(), c.Cost())
	}
}

// TestPurgeWhileShrinking: shards shrink while Purge's chunked
// traversal of them is in flight; the cursor must survive every
// shrink, or flush_all leaves entries behind. Sizes are pinned, and a
// hook halves the shard Purge is walking every few thousand removals,
// so each shard shrinks to its floor in the middle of its traversal
// whatever the scheduler does.
func TestPurgeWhileShrinking(t *testing.T) {
	const n, every = 50_000, 3000
	c, _ := newManual(t, WithShards(2), WithInitialBuckets(1<<14), WithPolicy(core.Policy{MinBuckets: 64}))
	for i := 0; i < n; i++ {
		c.Set(fmt.Sprintf("key-%05d", i), "v")
	}
	removed := make([]int, c.NumShards())
	shrinks := make([]int, c.NumShards())
	c.afterPurgeDelete = func(k string) {
		s := c.m.ShardIndex(c.hash(k))
		if removed[s]++; removed[s]%every != 0 {
			return
		}
		tbl := c.m.Shard(s)
		before := tbl.Buckets()
		tbl.ShrinkOnce()
		if tbl.Buckets() < before {
			shrinks[s]++
		}
	}
	if got := c.Purge(); got != n {
		t.Fatalf("Purge = %d, want %d", got, n)
	}
	if c.Len() != 0 || c.Cost() != 0 {
		t.Fatalf("Len=%d Cost=%d after Purge", c.Len(), c.Cost())
	}
	for s, k := range shrinks {
		if k == 0 {
			t.Fatalf("shard %d never shrank during its traversal (%d removals)", s, removed[s])
		}
	}
}
