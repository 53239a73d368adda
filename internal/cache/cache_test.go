package cache

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rphash/internal/clock"
)

// newManual builds a cache on a manual clock with the background
// sweeper off, so tests control time and reclamation exactly.
func newManual(t *testing.T, opts ...Option) (*Cache[string, string], *clock.Clock) {
	t.Helper()
	clk := clock.NewManual(time.Unix(1_000_000, 0))
	opts = append([]Option{WithClock(clk), WithSweepInterval(0)}, opts...)
	c := NewString[string](opts...)
	t.Cleanup(c.Close)
	return c, clk
}

func TestSetGetDelete(t *testing.T) {
	c, _ := newManual(t)
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get on empty cache")
	}
	c.Set("k", "v")
	if v, ok := c.Get("k"); !ok || v != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if c.Len() != 1 || c.Cost() != 1 {
		t.Fatalf("Len=%d Cost=%d, want 1,1", c.Len(), c.Cost())
	}
	c.Set("k", "v2") // replace: cost must not double-count
	if c.Cost() != 1 {
		t.Fatalf("Cost after replace = %d, want 1", c.Cost())
	}
	if !c.Delete("k") || c.Delete("k") {
		t.Fatal("Delete semantics wrong")
	}
	if c.Cost() != 0 {
		t.Fatalf("Cost after delete = %d, want 0", c.Cost())
	}
}

func TestTTLExpiry(t *testing.T) {
	c, clk := newManual(t)
	c.SetTTL("short", "v", time.Second)
	c.SetTTL("long", "v", time.Hour)
	c.Set("never", "v") // default TTL 0 = never

	clk.Advance(2 * time.Second)
	if _, ok := c.Get("short"); ok {
		t.Fatal("expired entry returned (lazy expiry broken)")
	}
	if _, ok := c.Get("long"); !ok {
		t.Fatal("live entry missing")
	}
	if _, ok := c.Get("never"); !ok {
		t.Fatal("non-expiring entry missing")
	}

	// The expired entry still occupies memory until swept.
	if c.Len() != 3 || c.Cost() != 3 {
		t.Fatalf("pre-sweep Len=%d Cost=%d, want 3,3", c.Len(), c.Cost())
	}
	if n := c.SweepExpired(100); n != 1 {
		t.Fatalf("SweepExpired = %d, want 1", n)
	}
	if c.Len() != 2 || c.Cost() != 2 {
		t.Fatalf("post-sweep Len=%d Cost=%d, want 2,2", c.Len(), c.Cost())
	}
	if st := c.Stats(); st.Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1", st.Expirations)
	}
}

func TestDefaultTTL(t *testing.T) {
	c, clk := newManual(t, WithTTL(time.Second))
	c.Set("k", "v")
	if _, ok := c.Get("k"); !ok {
		t.Fatal("fresh entry missing")
	}
	clk.Advance(2 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("default TTL not applied by Set")
	}
}

func TestSetExpiresAt(t *testing.T) {
	c, clk := newManual(t)
	at := clk.Now().Add(time.Second)
	c.SetExpiresAt("k", "v", at, 1)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry missing before absolute expiry")
	}
	clk.Advance(2 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry alive past absolute expiry")
	}
	c.SetExpiresAt("k2", "v", time.Time{}, 1) // zero time = never
	clk.Advance(time.Hour)
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("zero-time entry expired")
	}
}

func TestCapacityEviction(t *testing.T) {
	c, _ := newManual(t, WithMaxCost(20))
	for i := 0; i < 100; i++ {
		c.Set(fmt.Sprintf("key-%04d", i), "v")
	}
	if got := c.Cost(); got > 20 {
		t.Fatalf("Cost = %d exceeds budget 20 after eviction", got)
	}
	if n := c.Len(); n == 0 || n > 20 {
		t.Fatalf("Len = %d, want (0,20]", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestByteCostEviction(t *testing.T) {
	const itemCost = 100
	c, _ := newManual(t, WithMaxCost(10*itemCost))
	for i := 0; i < 50; i++ {
		c.SetWith(fmt.Sprintf("key-%04d", i), "v", 0, itemCost)
	}
	if got := c.Cost(); got > 10*itemCost {
		t.Fatalf("Cost = %d exceeds byte budget", got)
	}
	if n := c.Len(); n == 0 || n > 10 {
		t.Fatalf("Len = %d, want (0,10]", n)
	}
}

func TestEvictionPrefersExpired(t *testing.T) {
	// Per-shard sampling can only prefer expired entries it sees, so
	// use one shard and a sample covering the whole population: the
	// expired entry must go first.
	c, clk := newManual(t, WithShards(1), WithMaxCost(10), WithSampleSize(64))
	c.SetTTL("stale", "v", time.Second)
	clk.Advance(2 * time.Second)
	for i := 0; i < 10; i++ {
		c.Set(fmt.Sprintf("live-%d", i), "v")
	}
	if _, ok := c.m.Get("stale"); ok {
		t.Fatal("expired entry survived eviction pressure")
	}
	st := c.Stats()
	if st.Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1 (expired victim must not count as eviction)", st.Expirations)
	}
}

func TestGetOrLoadBasics(t *testing.T) {
	c, _ := newManual(t)
	calls := 0
	load := func() (string, error) { calls++; return "loaded", nil }

	v, err := c.GetOrLoad("k", load)
	if err != nil || v != "loaded" || calls != 1 {
		t.Fatalf("first GetOrLoad = %q, %v (calls=%d)", v, err, calls)
	}
	v, err = c.GetOrLoad("k", load)
	if err != nil || v != "loaded" || calls != 1 {
		t.Fatalf("second GetOrLoad = %q, %v (calls=%d, want cached)", v, err, calls)
	}
	if st := c.Stats(); st.Loads != 1 {
		t.Fatalf("Loads = %d, want 1", st.Loads)
	}
}

func TestGetOrLoadErrorNotCached(t *testing.T) {
	c, _ := newManual(t)
	boom := errors.New("backend down")
	calls := 0
	if _, err := c.GetOrLoad("k", func() (string, error) { calls++; return "", boom }); err != boom {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed load was cached")
	}
	if _, err := c.GetOrLoad("k", func() (string, error) { calls++; return "ok", nil }); err != nil {
		t.Fatalf("retry after error: %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (error must not be cached)", calls)
	}
	if st := c.Stats(); st.LoadErrors != 1 || st.Loads != 1 {
		t.Fatalf("Loads=%d LoadErrors=%d, want 1,1", st.Loads, st.LoadErrors)
	}
}

func TestGetOrLoadPanicDoesNotPoisonKey(t *testing.T) {
	c, _ := newManual(t)

	// Waiters parked on the panicking leader's flight must be released
	// with an error, not stranded on a never-closed channel.
	started := make(chan struct{})
	waitErr := make(chan error, 1)
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() {
			if recover() == nil {
				t.Error("leader's panic was swallowed")
			}
		}()
		c.GetOrLoad("k", func() (string, error) {
			close(started)
			time.Sleep(20 * time.Millisecond) // let the waiter park
			panic("backend exploded")
		})
	}()
	<-started
	go func() {
		_, err := c.GetOrLoad("k", func() (string, error) { return "waiter won, impossible", nil })
		waitErr <- err
	}()
	select {
	case err := <-waitErr:
		if err == nil {
			t.Fatal("waiter sharing a panicked flight got a nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter deadlocked on the panicked leader's flight")
	}
	<-leaderDone

	// The key must not be poisoned: a fresh GetOrLoad runs a new load.
	v, err := c.GetOrLoad("k", func() (string, error) { return "recovered", nil })
	if err != nil || v != "recovered" {
		t.Fatalf("GetOrLoad after panic = %q, %v; want recovered, nil", v, err)
	}
}

func TestGetOrLoadTTL(t *testing.T) {
	c, clk := newManual(t)
	calls := 0
	load := func() (string, error) { calls++; return "v", nil }
	if _, err := c.GetOrLoadTTL("k", time.Second, load); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if _, err := c.GetOrLoadTTL("k", time.Second, load); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (expired entry must reload)", calls)
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	c, _ := newManual(t)
	c.Set("k", "v")
	c.Peek("k")
	c.Peek("absent")
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek counted: hits=%d misses=%d", st.Hits, st.Misses)
	}
	c.Get("k")
	c.Get("absent")
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("Get miscounted: hits=%d misses=%d", st.Hits, st.Misses)
	}
}

func TestGetter(t *testing.T) {
	c, clk := newManual(t)
	c.SetTTL("k", "v", time.Second)
	get, release := c.NewGetter()
	defer release()
	if v, ok := get("k"); !ok || v != "v" {
		t.Fatalf("getter Get = %q, %v", v, ok)
	}
	clk.Advance(2 * time.Second)
	if _, ok := get("k"); ok {
		t.Fatal("getter returned expired entry")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("getter stats: hits=%d misses=%d", st.Hits, st.Misses)
	}
}

func TestRangeSkipsExpired(t *testing.T) {
	c, clk := newManual(t)
	c.SetTTL("gone", "v", time.Second)
	c.Set("here", "v")
	clk.Advance(2 * time.Second)
	seen := map[string]bool{}
	c.Range(func(k, _ string) bool { seen[k] = true; return true })
	if seen["gone"] || !seen["here"] {
		t.Fatalf("Range saw %v", seen)
	}
}

func TestPurge(t *testing.T) {
	c, clk := newManual(t)
	c.SetTTL("a", "v", time.Second)
	c.Set("b", "v")
	clk.Advance(2 * time.Second)
	if n := c.Purge(); n != 2 {
		t.Fatalf("Purge = %d, want 2 (expired entries occupy memory too)", n)
	}
	if c.Len() != 0 || c.Cost() != 0 {
		t.Fatalf("Len=%d Cost=%d after Purge", c.Len(), c.Cost())
	}
}

func TestBackgroundSweeper(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_000_000, 0))
	c := NewString[string](WithClock(clk), WithSweepInterval(time.Millisecond), WithShards(2))
	defer c.Close()
	for i := 0; i < 32; i++ {
		c.SetTTL(fmt.Sprintf("k%d", i), "v", time.Second)
	}
	clk.Advance(2 * time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for c.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweeper never reclaimed expired entries; %d left", c.Len())
		}
		time.Sleep(time.Millisecond)
	}
	if c.Cost() != 0 {
		t.Fatalf("Cost = %d after full sweep", c.Cost())
	}
}

func TestStatsSnapshot(t *testing.T) {
	c, _ := newManual(t, WithShards(2), WithMaxCost(1000))
	for i := 0; i < 10; i++ {
		c.Set(fmt.Sprintf("k%d", i), "v")
	}
	c.Get("k0")
	c.Get("missing")
	st := c.Stats()
	if st.Entries != 10 || st.Cost != 10 || st.MaxCost != 1000 {
		t.Fatalf("snapshot = %+v", st)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", st.Hits, st.Misses)
	}
	if got := len(st.Map.PerShard); got != 2 {
		t.Fatalf("PerShard len = %d, want 2", got)
	}
	sum := 0
	for _, ps := range st.Map.PerShard {
		sum += ps.Len
	}
	if sum != st.Map.Len || st.Map.Len != 10 {
		t.Fatalf("per-shard lens sum to %d, map-wide %d", sum, st.Map.Len)
	}
	if st.Map.Buckets == 0 || st.HitRatio() != 0.5 {
		t.Fatalf("Buckets=%d HitRatio=%v", st.Map.Buckets, st.HitRatio())
	}
	if st.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestUint64Cache(t *testing.T) {
	clk := clock.NewManual(time.Unix(1_000_000, 0))
	c := NewUint64[int](WithClock(clk), WithSweepInterval(0))
	defer c.Close()
	c.Set(7, 70)
	if v, ok := c.Get(7); !ok || v != 70 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
}

// TestSweeperExitsOnDomainClose: the background sweeper watches the
// map's domain Done channel, so a cache whose domain shuts down
// first releases its sweeper goroutine promptly instead of leaving
// it to stall on synchronous post-Close grace periods. Close after
// that must still return (sweepWG must not deadlock).
func TestSweeperExitsOnDomainClose(t *testing.T) {
	c := NewUint64[int](WithSweepInterval(time.Millisecond))
	c.SetTTL(1, 1, time.Nanosecond)
	time.Sleep(5 * time.Millisecond) // let the sweeper tick

	// Close the shared domain out from under the sweeper; Done fires.
	c.m.Domain().Close()

	done := make(chan struct{})
	go func() {
		c.sweepWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sweeper did not exit after the domain closed")
	}
	if c.ownClk {
		c.clk.Stop()
	}
}
