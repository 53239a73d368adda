package core

import (
	"testing"
	"time"
)

func TestGetBatch(t *testing.T) {
	tbl := NewUint64[int](WithInitialBuckets(64))
	defer tbl.Close()
	for i := uint64(0); i < 100; i++ {
		tbl.Set(i, int(i))
	}

	ks := make([]uint64, 0, 150)
	for i := uint64(0); i < 150; i++ {
		ks = append(ks, i) // 100 present, 50 absent
	}
	vals := make([]int, len(ks))
	oks := make([]bool, len(ks))
	tbl.GetBatch(ks, vals, oks)

	for i, k := range ks {
		if k < 100 {
			if !oks[i] || vals[i] != int(k) {
				t.Fatalf("key %d: got (%d, %v), want (%d, true)", k, vals[i], oks[i], k)
			}
		} else if oks[i] {
			t.Fatalf("absent key %d reported present", k)
		}
	}

	// Hashed form must agree.
	hs := make([]uint64, len(ks))
	for i, k := range ks {
		hs[i] = tbl.hash(k)
	}
	vals2 := make([]int, len(ks))
	oks2 := make([]bool, len(ks))
	tbl.GetBatchHashed(hs, ks, vals2, oks2)
	for i := range ks {
		if vals2[i] != vals[i] || oks2[i] != oks[i] {
			t.Fatalf("GetBatchHashed disagrees with GetBatch at %d", i)
		}
	}
}

func TestSetBatch(t *testing.T) {
	tbl := NewUint64[int](WithInitialBuckets(64))
	defer tbl.Close()
	tbl.Set(1, -1)

	// 1 is an overwrite; 2 appears twice (last value must win).
	inserted := tbl.SetBatch([]uint64{1, 2, 2, 3}, []int{10, 20, 21, 30})
	if inserted != 2 {
		t.Fatalf("inserted = %d, want 2 (keys 2 and 3)", inserted)
	}
	for k, want := range map[uint64]int{1: 10, 2: 21, 3: 30} {
		if v, ok := tbl.Get(k); !ok || v != want {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, v, ok, want)
		}
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tbl.Len())
	}
}

func TestDeleteBatch(t *testing.T) {
	tbl := NewUint64[int](WithInitialBuckets(64))
	defer tbl.Close()
	for i := uint64(0); i < 20; i++ {
		tbl.Set(i, int(i))
	}

	before := tbl.Domain().Stats().Deferred
	removed := tbl.DeleteBatch([]uint64{0, 1, 2, 3, 4, 99})
	if removed != 5 {
		t.Fatalf("removed = %d, want 5", removed)
	}
	if tbl.Len() != 15 {
		t.Fatalf("Len = %d, want 15", tbl.Len())
	}
	for i := uint64(0); i < 5; i++ {
		if _, ok := tbl.Get(i); ok {
			t.Fatalf("deleted key %d still present", i)
		}
	}
	// Unlinked nodes are the collector's: the batch queues no
	// grace-period work at all.
	if d := tbl.Domain().Stats().Deferred - before; d != 0 {
		t.Fatalf("batch delete queued %d deferred callbacks, want 0", d)
	}
}

func TestRangeChunkedVisitsAll(t *testing.T) {
	tbl := NewUint64[int](WithInitialBuckets(64))
	defer tbl.Close()
	const n = 1000
	for i := uint64(0); i < n; i++ {
		tbl.Set(i, int(i))
	}

	seen := make(map[uint64]int)
	tbl.RangeChunked(7, func(k uint64, v int) bool {
		if v != int(k) {
			t.Fatalf("key %d carried value %d", k, v)
		}
		seen[k]++
		return true
	})
	if len(seen) != n {
		t.Fatalf("visited %d distinct keys, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d visited %d times", k, c)
		}
	}

	// Early stop.
	count := 0
	tbl.RangeChunked(7, func(uint64, int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d, want 10", count)
	}
}

// TestRangeChunkedReleasesReaders is the grace-period rationale for
// RangeChunked: fn runs OUTSIDE the read-side critical section, so a
// blocking callback cannot extend a grace period. A Synchronize
// issued while fn is blocked must complete; with Range's single
// section this would deadlock.
func TestRangeChunkedReleasesReaders(t *testing.T) {
	tbl := NewUint64[int](WithInitialBuckets(8))
	defer tbl.Close()
	for i := uint64(0); i < 16; i++ {
		tbl.Set(i, int(i))
	}

	synced := make(chan struct{})
	first := true
	tbl.RangeChunked(1, func(uint64, int) bool {
		if first {
			first = false
			go func() {
				tbl.Domain().Synchronize()
				close(synced)
			}()
			select {
			case <-synced:
			case <-time.After(10 * time.Second):
				t.Error("Synchronize blocked while RangeChunked callback was running; fn is inside a reader section")
			}
			return !t.Failed()
		}
		return true
	})
}
