package core

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Torture tests for the lock-free write fast path: CAS inserts, the
// open-coded replace hint, and value-level compare-and-swap racing
// resizes (whose odd-epoch windows force the preamble fallback and
// whose unzip windows force the fallback and undo paths). Run them
// under -race; they are also in the -tags=invariants CI sweep via the
// Torture name prefix.

// churnMaintenance runs resize churn until stop closes: two goroutines
// call ExpandOnce/ShrinkOnce back to back, so one queues on resizeMu
// while the other waits out its grace periods, and fast-path writers
// keep hitting epoch changes and unzip windows mid-flight.
func churnMaintenance(tbl *Table[uint64, int], stop chan struct{}, wg *sync.WaitGroup) {
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
	}
}

// TestTortureCASInsertExactlyOneWinner races several goroutines
// inserting the same fresh keys (each with a writer-unique value)
// while resizes churn. Insert must admit exactly one
// winner per key — a speculative node that is undone after losing its
// epoch validation must not have reported success, and a key must
// never be won twice — and the surviving value must be the recorded
// winner's.
func TestTortureCASInsertExactlyOneWinner(t *testing.T) {
	tbl := newT(t, WithInitialBuckets(64))
	const keys = 4096
	const writers = 4

	winner := make([]atomic.Int32, keys)
	for i := range winner {
		winner[i].Store(-1)
	}

	stop := make(chan struct{})
	var maint sync.WaitGroup
	churnMaintenance(tbl, stop, &maint)

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for _, i := range rng.Perm(keys) {
				if tbl.Insert(uint64(i), i*writers+g) {
					if !winner[i].CompareAndSwap(-1, int32(g)) {
						t.Errorf("key %d won twice (writers %d and %d)",
							i, winner[i].Load(), g)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	maint.Wait()

	if got := tbl.Len(); got != keys {
		t.Fatalf("Len = %d, want %d", got, keys)
	}
	for i := 0; i < keys; i++ {
		w := winner[i].Load()
		if w < 0 {
			t.Fatalf("key %d was never won", i)
		}
		if v, ok := tbl.Get(uint64(i)); !ok || v != i*writers+int(w) {
			t.Fatalf("Get(%d) = %d,%v; want winner %d's value %d",
				i, v, ok, w, i*writers+int(w))
		}
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTortureValueCASIncrementLedger drives the value plane: writers
// increment a small set of counters purely through
// CompareAndSwapValue while resizes churn. Every
// successful swap transitions the value it matched to exactly
// matched+1 (the value box pointer makes the CAS ABA-free), so each
// final counter must equal the successes recorded against it — a lost
// or double-applied swap breaks the ledger. The keys are never
// deleted, so the documented swap-vs-delete caveat is out of scope
// here.
func TestTortureValueCASIncrementLedger(t *testing.T) {
	tbl := newT(t, WithInitialBuckets(128))
	const keys = 64
	const writers = 4
	const attempts = 20000
	for i := uint64(0); i < keys; i++ {
		tbl.Set(i, 0)
	}

	stop := make(chan struct{})
	var maint sync.WaitGroup
	churnMaintenance(tbl, stop, &maint)

	var successes [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < attempts; n++ {
				k := uint64(rng.Intn(keys))
				cur, ok := tbl.Get(k)
				if !ok {
					t.Errorf("counter key %d missing", k)
					return
				}
				swapped, present := tbl.CompareAndSwapValue(k,
					func(v int) bool { return v == cur }, cur+1)
				if !present {
					t.Errorf("counter key %d reported absent", k)
					return
				}
				if swapped {
					successes[k].Add(1)
				}
			}
		}(int64(g + 300))
	}
	wg.Wait()
	close(stop)
	maint.Wait()

	for k := uint64(0); k < keys; k++ {
		want := int(successes[k].Load())
		if v, ok := tbl.Get(k); !ok || v != want {
			t.Fatalf("counter %d = %d,%v after churn; ledger says %d successful swaps",
				k, v, ok, want)
		}
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTortureReplaceHintRacingDeleteResize exercises the open-coded
// replace fast path (the unprotected hint walk revalidated under the
// stripe) against everything that can kill a hint: deletes unlink the
// hinted node mid-flight on the volatile range, and resizes
// move the epoch so hints go stale wholesale. Stable keys take
// continuous Set/Swap traffic and must never be missed by concurrent
// readers nor hold a foreign value; a disjoint absent range must stay
// absent throughout — a speculative insert that leaked past its undo
// would surface there as a phantom key (writers never touch it, so
// any sighting is a fast-path bug).
func TestTortureReplaceHintRacingDeleteResize(t *testing.T) {
	tbl := newT(t, WithInitialBuckets(128))
	const stable = 512
	const volatileBase = 1 << 20
	const absentBase = 1 << 30
	fill(tbl, stable)

	stop := make(chan struct{})
	var misses, phantoms atomic.Int64
	var wg sync.WaitGroup
	churnMaintenance(tbl, stop, &wg)

	// Readers: stable keys always present with a value some writer
	// wrote; absent keys never appear.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := tbl.NewReadHandle()
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
				if _, ok := h.Get(absentBase + uint64(rng.Intn(4096))); ok {
					phantoms.Add(1)
				}
			}
		}(int64(g + 400))
	}

	// Writers: replace traffic on the stable range (Set re-publishing
	// the same value, Swap asserting it read that value back), and
	// Set/Delete churn on the volatile range so replace hints race
	// unlinks of the very node they point at.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(stable))
				switch rng.Intn(4) {
				case 0:
					if tbl.Set(k, int(k)) {
						t.Errorf("Set(%d) claims insert on a stable key", k)
						return
					}
				case 1:
					if old, replaced := tbl.Swap(k, int(k)); !replaced || old != int(k) {
						t.Errorf("Swap(%d) = %d,%v; want %d,true", k, old, replaced, k)
						return
					}
				default:
					vk := volatileBase + uint64(rng.Intn(1024))
					if rng.Intn(2) == 0 {
						tbl.Set(vk, int(vk))
					} else {
						tbl.Delete(vk)
					}
				}
			}
		}(int64(g + 500))
	}

	time.Sleep(1200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := misses.Load(); n != 0 {
		t.Fatalf("%d reads missed stable keys during replace churn", n)
	}
	if n := phantoms.Load(); n != 0 {
		t.Fatalf("%d phantom sightings in the absent key range (leaked speculative insert?)", n)
	}
	for i := uint64(0); i < stable; i++ {
		if v, ok := tbl.Get(i); !ok || v != int(i) {
			t.Fatalf("stable key %d = %d,%v after churn", i, v, ok)
		}
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStripedInsertMeetsCASRival pins the window between a striped
// insert's absence walk and its publish: testHookBeforePublish runs
// one lock-free insert of the same key to completion right there. The
// striped write must then treat the key as present — Set, Swap, Update
// and SetBatch replace the rival's value, Insert is a no-op, Move
// fails — and the table must hold exactly one node for the key.
func TestStripedInsertMeetsCASRival(t *testing.T) {
	const k, src, rival, mine = 7, 8, 100, 200
	cases := []struct {
		name  string
		write func(t *testing.T, tbl *Table[uint64, int])
		want  int // k's value afterwards
	}{
		{"Set", func(t *testing.T, tbl *Table[uint64, int]) {
			if tbl.Set(k, mine) {
				t.Error("Set reported an insert over the rival")
			}
		}, mine},
		{"Swap", func(t *testing.T, tbl *Table[uint64, int]) {
			if old, replaced := tbl.Swap(k, mine); !replaced || old != rival {
				t.Errorf("Swap = %d,%v, want %d,true", old, replaced, rival)
			}
		}, mine},
		{"Insert", func(t *testing.T, tbl *Table[uint64, int]) {
			if tbl.Insert(k, mine) {
				t.Error("Insert succeeded over the rival")
			}
		}, rival},
		{"Update", func(t *testing.T, tbl *Table[uint64, int]) {
			var seen []int
			prev, hadPrev, stored := tbl.Update(k, func(cur int, present bool) (int, bool) {
				seen = append(seen, cur)
				return cur + mine, true
			})
			if prev != rival || !hadPrev || !stored {
				t.Errorf("Update = %d,%v,%v, want %d,true,true", prev, hadPrev, stored, rival)
			}
			if !slices.Equal(seen, []int{0, rival}) {
				t.Errorf("fn saw %v, want [0 %d]: it must rerun on the rival's value", seen, rival)
			}
		}, rival + mine},
		{"SetBatch", func(t *testing.T, tbl *Table[uint64, int]) {
			if n := tbl.SetBatch([]uint64{k}, []int{mine}); n != 0 {
				t.Errorf("SetBatch inserted %d, want 0", n)
			}
		}, mine},
		{"Move", func(t *testing.T, tbl *Table[uint64, int]) {
			if tbl.Move(src, k) {
				t.Error("Move onto the rival's key succeeded")
			}
			if v, ok := tbl.Get(src); !ok || v != mine {
				t.Errorf("source after failed Move = %d,%v, want %d,true", v, ok, mine)
			}
		}, rival},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The striped path only: the write under test must reach its
			// publish; tryInsertCAS itself ignores the option.
			tbl := NewUint64[int](WithCASInsert(false))
			defer tbl.Close()
			tbl.Set(src, mine)
			fired := false
			tbl.testHookBeforePublish = func() {
				if fired {
					return
				}
				fired = true
				v := rival
				if got := tbl.tryInsertCAS(tbl.hash(k), k, &v); got != casInsertDone {
					t.Fatalf("rival tryInsertCAS = %v, want casInsertDone", got)
				}
			}
			tc.write(t, tbl)
			tbl.testHookBeforePublish = nil
			if !fired {
				t.Fatal("the write never reached a striped publish")
			}
			if v, ok := tbl.Get(k); !ok || v != tc.want {
				t.Errorf("Get(%d) = %d,%v, want %d,true", k, v, ok, tc.want)
			}
			if n := tbl.Len(); n != 2 {
				t.Errorf("Len = %d, want 2", n)
			}
			if err := tbl.checkInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}
