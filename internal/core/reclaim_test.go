package core

import (
	"sync"
	"testing"
	"unsafe"
)

// Chain-engine writes leave reclamation to the collector: an unlinked
// node keeps its next pointer and nothing is queued on the RCU domain.
// These tests pin both halves, plus the counter layout the write path
// relies on.

// TestChainWritesQueueNoGraceWork drives every chain write that
// unlinks a node on a fixed-size table and checks that the domain saw
// neither a deferred callback nor a grace period.
func TestChainWritesQueueNoGraceWork(t *testing.T) {
	tbl := NewUint64[int](WithInitialBuckets(1024))
	defer tbl.Close()
	before := tbl.Domain().Stats()

	const rounds = 6000
	batch := make([]uint64, 4)
	ops := 0
	for r := uint64(0); r < rounds; r++ {
		base := r * 16
		for i := uint64(0); i < 8; i++ {
			if !tbl.Insert(base+i, int(i)) {
				t.Fatalf("Insert(%d) found the key present", base+i)
			}
		}
		if !tbl.Move(base, base+8) || !tbl.Move(base+1, base+9) {
			t.Fatalf("Move failed in round %d", r)
		}
		if !tbl.Delete(base+8) || !tbl.Delete(base+9) {
			t.Fatalf("Delete of a moved key failed in round %d", r)
		}
		if _, ok := tbl.CompareAndDelete(base+2, func(v int) bool { return v == 2 }); !ok {
			t.Fatalf("CompareAndDelete failed in round %d", r)
		}
		if !tbl.Delete(base + 3) {
			t.Fatalf("Delete failed in round %d", r)
		}
		for i := range batch {
			batch[i] = base + 4 + uint64(i)
		}
		if n := tbl.DeleteBatch(batch); n != len(batch) {
			t.Fatalf("DeleteBatch removed %d of %d in round %d", n, len(batch), r)
		}
		ops += 8 + 2 + 2 + 2 + len(batch)
	}
	if ops < 100_000 {
		t.Fatalf("only %d writes driven", ops)
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tbl.Len())
	}
	after := tbl.Domain().Stats()
	if after.Deferred != before.Deferred || after.GracePeriods != before.GracePeriods {
		t.Fatalf("chain writes queued grace work: deferred %d -> %d, grace periods %d -> %d",
			before.Deferred, after.Deferred, before.GracePeriods, after.GracePeriods)
	}
	st := tbl.Stats()
	if st.Inserts != rounds*8 || st.CASFastInserts > st.Inserts || st.Deletes != rounds*8 {
		t.Fatalf("Inserts = %d (CAS %d), Deletes = %d; want %d, <= Inserts, %d",
			st.Inserts, st.CASFastInserts, st.Deletes, rounds*8, rounds*8)
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderOnUnlinkedNodeWalksOn holds what a reader standing
// mid-chain holds — a node pointer — while that node and the two
// behind it are deleted and other goroutines insert. The walk onward
// from the held node must still pass every surviving key that was
// behind it, during the deletes and after everything a grace period
// could have triggered has run.
func TestReaderOnUnlinkedNodeWalksOn(t *testing.T) {
	// Identity hash into one bucket: the chain is 63 -> 62 -> ... -> 0,
	// and every concurrent insert prepends ahead of it.
	tbl := New[uint64, int](func(k uint64) uint64 { return k }, WithInitialBuckets(1))
	defer tbl.Close()
	const n = 64
	for i := uint64(0); i < n; i++ {
		tbl.Set(i, int(i))
	}
	// Delete 40, 39, 38; the survivors behind are 37..0.
	const held = 40
	at := tbl.findLocked(held, held) // no writer is running yet
	if at == nil {
		t.Fatalf("key %d not on the chain", held)
	}
	survivorsBehind := func() int {
		want := uint64(held - 3)
		seen := 0
		for c := at.next.Load(); c != nil; c = c.next.Load() {
			if c.key == want {
				seen++
				want--
			}
		}
		return seen
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := uint64(0); g < 2; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for k := n + g; ; k += 2 {
				select {
				case <-stop:
					return
				default:
					tbl.Insert(k, int(k))
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if got := survivorsBehind(); got != held-2 {
					t.Errorf("walk from the held node passed %d of %d surviving keys", got, held-2)
					return
				}
			}
		}
	}()
	for _, k := range []uint64{held, held - 1, held - 2} {
		if !tbl.Delete(k) {
			t.Errorf("Delete(%d) missed", k)
		}
	}
	close(stop)
	wg.Wait()
	tbl.Domain().Barrier()

	if at.casState.Load() != casConsumed {
		t.Fatal("held node does not carry the dead mark")
	}
	if got := survivorsBehind(); got != held-2 {
		t.Fatalf("walk from the held node passed %d of %d surviving keys", got, held-2)
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteCountersOwnCacheLine pins the layout the write path counts
// on: the per-write counters fill exactly one aligned cache line.
func TestWriteCountersOwnCacheLine(t *testing.T) {
	tbl := NewUint64[int]()
	defer tbl.Close()
	if sz := unsafe.Sizeof(*tbl.wc); sz != stripeCacheLine {
		t.Fatalf("writeCounters is %d bytes, want %d", sz, stripeCacheLine)
	}
	if off := uintptr(unsafe.Pointer(tbl.wc)) % stripeCacheLine; off != 0 {
		t.Fatalf("writeCounters allocated %d bytes into a cache line", off)
	}
}
