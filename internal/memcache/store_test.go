package memcache

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// storeFactories lets every test run against both engines — the
// baseline and the paper's patch must be behaviorally identical.
var storeFactories = map[string]func(maxBytes int64) Store{
	"lock": func(m int64) Store { return NewLockStore(m) },
	"rp":   func(m int64) Store { return NewRPStore(m) },
}

func forEachStore(t *testing.T, maxBytes int64, fn func(t *testing.T, s Store)) {
	for name, mk := range storeFactories {
		t.Run(name, func(t *testing.T) {
			s := mk(maxBytes)
			defer s.Close()
			fn(t, s)
		})
	}
}

func TestSetGetDelete(t *testing.T) {
	forEachStore(t, 0, func(t *testing.T, s Store) {
		if _, ok := s.Get("k"); ok {
			t.Fatal("Get on empty store")
		}
		s.Set(NewItem("k", 7, []byte("hello"), 0))
		it, ok := s.Get("k")
		if !ok || string(it.Value) != "hello" || it.Flags != 7 {
			t.Fatalf("Get = %+v, %v", it, ok)
		}
		if it.CAS == 0 {
			t.Fatal("stored item has zero CAS")
		}
		if !s.Delete("k") || s.Delete("k") {
			t.Fatal("Delete semantics wrong")
		}
		if _, ok := s.Get("k"); ok {
			t.Fatal("Get after Delete")
		}
	})
}

func TestAddReplace(t *testing.T) {
	forEachStore(t, 0, func(t *testing.T, s Store) {
		if s.Replace(NewItem("k", 0, []byte("x"), 0)) {
			t.Fatal("Replace stored to empty key")
		}
		if !s.Add(NewItem("k", 0, []byte("1"), 0)) {
			t.Fatal("Add to empty key failed")
		}
		if s.Add(NewItem("k", 0, []byte("2"), 0)) {
			t.Fatal("Add over live key succeeded")
		}
		if !s.Replace(NewItem("k", 0, []byte("3"), 0)) {
			t.Fatal("Replace of live key failed")
		}
		it, _ := s.Get("k")
		if string(it.Value) != "3" {
			t.Fatalf("value = %q, want 3", it.Value)
		}
	})
}

func TestCAS(t *testing.T) {
	forEachStore(t, 0, func(t *testing.T, s Store) {
		if err := s.CompareAndSwap(NewItem("k", 0, []byte("x"), 0), 1); err != ErrNotFound {
			t.Fatalf("CAS on absent key: %v, want ErrNotFound", err)
		}
		s.Set(NewItem("k", 0, []byte("v1"), 0))
		it, _ := s.Get("k")
		if err := s.CompareAndSwap(NewItem("k", 0, []byte("v2"), 0), it.CAS+99); err != ErrCASMismatch {
			t.Fatalf("stale CAS: %v, want ErrCASMismatch", err)
		}
		if err := s.CompareAndSwap(NewItem("k", 0, []byte("v2"), 0), it.CAS); err != nil {
			t.Fatalf("matching CAS: %v", err)
		}
		got, _ := s.Get("k")
		if string(got.Value) != "v2" {
			t.Fatalf("value = %q after CAS", got.Value)
		}
		if got.CAS == it.CAS {
			t.Fatal("CAS id did not advance on store")
		}
	})
}

func TestExpiry(t *testing.T) {
	forEachStore(t, 0, func(t *testing.T, s Store) {
		past := time.Now().Unix() - 10
		s.Set(NewItem("gone", 0, []byte("x"), past))
		if _, ok := s.Get("gone"); ok {
			t.Fatal("expired item returned")
		}
		future := time.Now().Unix() + 1000
		s.Set(NewItem("live", 0, []byte("y"), future))
		if _, ok := s.Get("live"); !ok {
			t.Fatal("live item missing")
		}
		// Expired keys are Add-able and not Replace-able.
		if !s.Add(NewItem("gone", 0, []byte("z"), 0)) {
			t.Fatal("Add over expired key failed")
		}
	})
}

func TestTouch(t *testing.T) {
	forEachStore(t, 0, func(t *testing.T, s Store) {
		if s.Touch("nope", time.Now().Unix()+100) {
			t.Fatal("Touch on absent key")
		}
		s.Set(NewItem("k", 3, []byte("v"), time.Now().Unix()+1000))
		if !s.Touch("k", time.Now().Unix()-5) {
			t.Fatal("Touch failed")
		}
		if _, ok := s.Get("k"); ok {
			t.Fatal("item alive after Touch to the past")
		}
	})
}

func TestAppendPrepend(t *testing.T) {
	forEachStore(t, 0, func(t *testing.T, s Store) {
		if s.Append("k", []byte("!")) || s.Prepend("k", []byte("!")) {
			t.Fatal("concat on absent key succeeded")
		}
		s.Set(NewItem("k", 0, []byte("mid"), 0))
		if !s.Append("k", []byte(">")) || !s.Prepend("k", []byte("<")) {
			t.Fatal("concat failed")
		}
		it, _ := s.Get("k")
		if string(it.Value) != "<mid>" {
			t.Fatalf("value = %q, want <mid>", it.Value)
		}
	})
}

func TestIncrDecr(t *testing.T) {
	forEachStore(t, 0, func(t *testing.T, s Store) {
		if _, err := s.IncrDecr("k", 1, false); err != ErrNotFound {
			t.Fatalf("incr absent: %v", err)
		}
		s.Set(NewItem("k", 0, []byte("10"), 0))
		if v, err := s.IncrDecr("k", 5, false); err != nil || v != 15 {
			t.Fatalf("incr = %d, %v", v, err)
		}
		if v, err := s.IncrDecr("k", 20, true); err != nil || v != 0 {
			t.Fatalf("decr floors at 0: got %d, %v", v, err)
		}
		s.Set(NewItem("s", 0, []byte("abc"), 0))
		if _, err := s.IncrDecr("s", 1, false); err != ErrNotNumeric {
			t.Fatalf("incr non-numeric: %v", err)
		}
	})
}

func TestFlushAll(t *testing.T) {
	forEachStore(t, 0, func(t *testing.T, s Store) {
		for i := 0; i < 50; i++ {
			s.Set(NewItem(fmt.Sprintf("k%d", i), 0, []byte("v"), 0))
		}
		s.FlushAll(time.Now().Unix())
		if n := s.Len(); n != 0 {
			t.Fatalf("Len = %d after FlushAll", n)
		}
		if b := s.Bytes(); b != 0 {
			t.Fatalf("Bytes = %d after FlushAll", b)
		}
	})
}

func TestEviction(t *testing.T) {
	// Budget for ~20 items of this shape.
	item := func(i int) *Item {
		return NewItem(fmt.Sprintf("key-%04d", i), 0, bytes.Repeat([]byte{'v'}, 52), 0)
	}
	budget := 20 * item(0).Size()
	forEachStore(t, budget, func(t *testing.T, s Store) {
		for i := 0; i < 100; i++ {
			s.Set(item(i))
		}
		if b := s.Bytes(); b > budget {
			t.Fatalf("Bytes = %d exceeds budget %d after eviction", b, budget)
		}
		if n := s.Len(); n == 0 || n > 20 {
			t.Fatalf("Len = %d, want (0,20]", n)
		}
		if ev := s.Stats().Evictions; ev == 0 {
			t.Fatal("no evictions recorded")
		}
	})
}

func TestLRUEvictionPrefersCold(t *testing.T) {
	// Strict-LRU LockStore must keep the hot key; sampled-LRU RPStore
	// keeps it with high probability — assert only on LockStore.
	s := NewLockStore(12 * NewItem("k-000", 0, bytes.Repeat([]byte{'v'}, 52), 0).Size())
	defer s.Close()
	hot := NewItem("hot-key", 0, bytes.Repeat([]byte{'v'}, 52), 0)
	s.Set(hot)
	for i := 0; i < 60; i++ {
		s.Get("hot-key") // keep hot at LRU front
		s.Set(NewItem(fmt.Sprintf("cold-%04d", i), 0, bytes.Repeat([]byte{'v'}, 52), 0))
	}
	if _, ok := s.Get("hot-key"); !ok {
		t.Fatal("strict LRU evicted the hot key")
	}
}

func TestStatsCounts(t *testing.T) {
	forEachStore(t, 0, func(t *testing.T, s Store) {
		s.Set(NewItem("a", 0, []byte("1"), 0))
		s.Get("a")
		s.Get("missing")
		s.Delete("a")
		st := s.Stats()
		if st.GetHits != 1 || st.GetMisses != 1 || st.Sets != 1 || st.Deletes != 1 {
			t.Fatalf("stats = %+v", st)
		}
		if st.Engine == "" {
			t.Fatal("engine name empty")
		}
	})
}

// TestRPStoreSweepsItself: expired items must be reclaimed by the
// cache's own background sweeper — the single sweep mechanism — with
// no external SweepExpired driver; and RPStore must NOT expose a
// SweepExpired pass, or the server's ticker would become a second,
// duplicate reclamation mechanism.
func TestRPStoreSweepsItself(t *testing.T) {
	s := NewRPStore(0)
	defer s.Close()

	if _, ok := any(s).(sweeper); ok {
		t.Fatal("RPStore implements the server's sweeper interface; expired items would be reclaimed by two mechanisms")
	}

	past := time.Now().Unix() - 5
	for i := 0; i < 30; i++ {
		s.Set(NewItem(fmt.Sprintf("e%d", i), 0, []byte("x"), past))
	}
	s.Set(NewItem("live", 0, []byte("x"), 0))

	// Each rpSweepInterval tick examines a budget of one shard's
	// entries; these few items take one rotation over the shards.
	// Give it that, generously.
	deadline := time.Now().Add(30 * time.Second)
	for s.Len() > 1 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after background sweep, want 1", s.Len())
	}
	if got := s.Stats().Expired; got != 30 {
		t.Fatalf("Expired stat = %d, want 30", got)
	}
	if _, ok := s.Get("live"); !ok {
		t.Fatal("live item swept")
	}
}

// TestTortureGetUnderChurn: GETs must always see a complete,
// previously-stored value while SETs replace values and the table
// auto-resizes underneath.
func TestTortureGetUnderChurn(t *testing.T) {
	forEachStore(t, 0, func(t *testing.T, s Store) {
		const keys = 256
		// Values are self-describing: "<key>=<gen>" so readers can
		// verify integrity.
		valFor := func(k, gen int) []byte {
			return []byte(fmt.Sprintf("%d=%d", k, gen))
		}
		for k := 0; k < keys; k++ {
			s.Set(NewItem(strconv.Itoa(k), 0, valFor(k, 0), 0))
		}

		stop := make(chan struct{})
		var bad atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				k := seed
				for {
					select {
					case <-stop:
						return
					default:
					}
					k = (k*31 + 17) % keys
					it, ok := s.Get(strconv.Itoa(k))
					if !ok {
						bad.Add(1)
						continue
					}
					// Value must be "<k>=<n>" for some n.
					parts := bytes.SplitN(it.Value, []byte{'='}, 2)
					if len(parts) != 2 || string(parts[0]) != strconv.Itoa(k) {
						bad.Add(1)
					}
				}
			}(g)
		}
		deadline := time.Now().Add(600 * time.Millisecond)
		gen := 1
		for time.Now().Before(deadline) {
			for k := 0; k < keys; k++ {
				s.Set(NewItem(strconv.Itoa(k), 0, valFor(k, gen), 0))
			}
			gen++
		}
		close(stop)
		wg.Wait()
		if n := bad.Load(); n != 0 {
			t.Fatalf("%d corrupt or missing reads under churn (%d set generations)", n, gen)
		}
	})
}
