package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newFlatT(t testing.TB, opts ...Option) *Table[uint64, int] {
	t.Helper()
	tbl := NewUint64[int](append([]Option{WithEngine(EngineFlat)}, opts...)...)
	t.Cleanup(tbl.Close)
	return tbl
}

func TestFlatEngineName(t *testing.T) {
	if got := newFlatT(t).Engine(); got != EngineFlat {
		t.Fatalf("Engine() = %q, want %q", got, EngineFlat)
	}
	if got := newT(t).Engine(); got != EngineChain {
		t.Fatalf("chain Engine() = %q, want %q", got, EngineChain)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown engine name should panic at construction")
		}
	}()
	NewUint64[int](WithEngine("bogus"))
}

// TestFlatPointOps runs the whole point-write surface against the
// flat engine, including the overflow spill: one group of eight cells
// holding 64 elements exercises every operation on both inline cells
// and spill nodes.
func TestFlatPointOps(t *testing.T) {
	tbl := newFlatT(t, WithInitialBuckets(1), WithPolicy(Policy{MinBuckets: 1}))
	const n = 64
	for i := uint64(0); i < n; i++ {
		if !tbl.Set(i, int(i)) {
			t.Fatalf("Set(%d) did not report insert", i)
		}
	}
	if tbl.Len() != n {
		t.Fatalf("Len = %d, want %d", tbl.Len(), n)
	}
	if tbl.Buckets() != 1 {
		t.Fatalf("Buckets = %d, want 1 (spill must not grow the table)", tbl.Buckets())
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tbl.Get(i); !ok || v != int(i) {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := tbl.Get(n + 1); ok {
		t.Fatal("Get of absent key succeeded")
	}

	if old, ok := tbl.Swap(3, 300); !ok || old != 3 {
		t.Fatalf("Swap(3) = %d,%v want 3,true", old, ok)
	}
	if _, ok := tbl.Swap(n+5, 1); ok {
		t.Fatal("Swap of absent key reported replacement")
	}
	tbl.Delete(n + 5)
	if tbl.Insert(3, 1) {
		t.Fatal("Insert of present key succeeded")
	}
	if !tbl.Replace(3, 301) {
		t.Fatal("Replace of present key failed")
	}
	if v, _ := tbl.Get(3); v != 301 {
		t.Fatalf("Get(3) = %d, want 301", v)
	}
	if swapped, present := tbl.CompareAndSwapValue(3, func(v int) bool { return v == 301 }, 302); !swapped || !present {
		t.Fatalf("CompareAndSwapValue matched = %v,%v", swapped, present)
	}
	if swapped, present := tbl.CompareAndSwapValue(3, func(v int) bool { return v == 999 }, 0); swapped || !present {
		t.Fatalf("CompareAndSwapValue mismatched = %v,%v", swapped, present)
	}
	if _, _, stored := tbl.Update(3, func(cur int, present bool) (int, bool) {
		if !present || cur != 302 {
			t.Fatalf("Update saw %d,%v", cur, present)
		}
		return 303, true
	}); !stored {
		t.Fatal("Update did not store")
	}
	if !tbl.Move(3, n+100) {
		t.Fatal("Move failed")
	}
	if v, ok := tbl.Get(n + 100); !ok || v != 303 {
		t.Fatalf("moved value = %d,%v", v, ok)
	}
	if tbl.Contains(3) {
		t.Fatal("old key survived Move")
	}
	if v, ok := tbl.CompareAndDelete(n+100, func(v int) bool { return v == 303 }); !ok || v != 303 {
		t.Fatalf("CompareAndDelete = %d,%v", v, ok)
	}
	for i := uint64(0); i < n; i += 2 {
		tbl.Delete(i)
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatalf("invariants after deletes: %v", err)
	}
	// Cell reuse after the deletes' grace periods.
	tbl.Domain().Synchronize()
	for i := uint64(0); i < n; i += 2 {
		tbl.Set(i, int(i)+1)
	}
	for i := uint64(0); i < n; i++ {
		want := int(i)
		if i%2 == 0 {
			want++
		} else if i == 3 {
			continue // moved away and deleted above
		}
		if v, ok := tbl.Get(i); !ok || v != want {
			t.Fatalf("Get(%d) = %d,%v want %d", i, v, ok, want)
		}
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestFlatAgainstReference drives both engines through an identical
// randomized op sequence and cross-checks them against a plain map
// after every step — the engines must be observationally equivalent.
func TestFlatAgainstReference(t *testing.T) {
	flat := newFlatT(t, WithInitialBuckets(4), WithPolicy(Policy{MinBuckets: 4}))
	chain := newT(t, WithInitialBuckets(4))
	ref := make(map[uint64]int)
	rng := rand.New(rand.NewSource(1))
	const keySpace = 512
	for step := 0; step < 20000; step++ {
		k := uint64(rng.Intn(keySpace))
		v := rng.Int()
		switch rng.Intn(6) {
		case 0, 1:
			fIns := flat.Set(k, v)
			cIns := chain.Set(k, v)
			_, had := ref[k]
			if fIns == had || fIns != cIns {
				t.Fatalf("step %d: Set(%d) insert flat=%v chain=%v had=%v", step, k, fIns, cIns, had)
			}
			ref[k] = v
		case 2:
			fOk := flat.Delete(k)
			cOk := chain.Delete(k)
			_, had := ref[k]
			if fOk != had || fOk != cOk {
				t.Fatalf("step %d: Delete(%d) flat=%v chain=%v had=%v", step, k, fOk, cOk, had)
			}
			delete(ref, k)
		case 3:
			fOk := flat.Insert(k, v)
			chain.Insert(k, v)
			if _, had := ref[k]; fOk == had {
				t.Fatalf("step %d: Insert(%d) = %v, had=%v", step, k, fOk, had)
			} else if !had {
				ref[k] = v
			}
		case 4:
			old, fOk := flat.Swap(k, v)
			chain.Swap(k, v)
			if prev, had := ref[k]; fOk != had || (had && old != prev) {
				t.Fatalf("step %d: Swap(%d) = %d,%v want %d,%v", step, k, old, fOk, prev, had)
			}
			ref[k] = v
		case 5:
			fv, fOk := flat.Get(k)
			if rv, had := ref[k]; fOk != had || (had && fv != rv) {
				t.Fatalf("step %d: Get(%d) = %d,%v want %d,%v", step, k, fv, fOk, rv, had)
			}
		}
		if flat.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, ref = %d", step, flat.Len(), len(ref))
		}
	}
	if err := flat.checkInvariants(); err != nil {
		t.Fatalf("flat invariants: %v", err)
	}
	got := 0
	flat.Range(func(k uint64, v int) bool {
		if rv, ok := ref[k]; !ok || rv != v {
			t.Fatalf("Range visited (%d,%d), ref has %d,%v", k, v, rv, ok)
		}
		got++
		return true
	})
	if got != len(ref) {
		t.Fatalf("Range visited %d elements, want %d", got, len(ref))
	}
}

// TestFlatBatchOps exercises the stripe-sorted batch paths, including
// intra-batch duplicates (last write wins) and batched deletes of
// both inline and spilled elements.
func TestFlatBatchOps(t *testing.T) {
	tbl := newFlatT(t, WithInitialBuckets(8), WithPolicy(Policy{MinBuckets: 8}))
	const n = 256
	ks := make([]uint64, 0, n+2)
	vs := make([]int, 0, n+2)
	for i := uint64(0); i < n; i++ {
		ks = append(ks, i)
		vs = append(vs, int(i))
	}
	ks = append(ks, 7, 7) // duplicates: later entries win
	vs = append(vs, 700, 701)
	if ins := tbl.SetBatch(ks, vs); ins != n {
		t.Fatalf("SetBatch inserted %d, want %d", ins, n)
	}
	if v, _ := tbl.Get(7); v != 701 {
		t.Fatalf("duplicate key resolved to %d, want 701 (last write wins)", v)
	}
	outV := make([]int, n)
	outOK := make([]bool, n)
	tbl.GetBatch(ks[:n], outV, outOK)
	for i := uint64(0); i < n; i++ {
		want := int(i)
		if i == 7 {
			want = 701
		}
		if !outOK[i] || outV[i] != want {
			t.Fatalf("GetBatch[%d] = %d,%v want %d", i, outV[i], outOK[i], want)
		}
	}
	if removed := tbl.DeleteBatch(ks[:n/2]); removed != n/2 {
		t.Fatalf("DeleteBatch removed %d, want %d", removed, n/2)
	}
	if tbl.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tbl.Len(), n/2)
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestFlatResizeCopiesEverything checks the copy-based migration in
// both directions, with invariants validated after every step and
// under mixed inline/spill occupancy.
func TestFlatResizeCopiesEverything(t *testing.T) {
	tbl := newFlatT(t, WithInitialBuckets(4), WithPolicy(Policy{MinBuckets: 4}))
	const n = 1000
	fill(tbl, n)
	for i := 0; i < 6; i++ {
		tbl.ExpandOnce()
		if err := tbl.checkInvariants(); err != nil {
			t.Fatalf("invariants after expand %d: %v", i, err)
		}
	}
	if got := tbl.Buckets(); got != 256 {
		t.Fatalf("Buckets = %d, want 256", got)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tbl.Get(i); !ok || v != int(i) {
			t.Fatalf("after expands: Get(%d) = %d,%v", i, v, ok)
		}
	}
	for i := 0; i < 6; i++ {
		tbl.ShrinkOnce()
		if err := tbl.checkInvariants(); err != nil {
			t.Fatalf("invariants after shrink %d: %v", i, err)
		}
	}
	if got := tbl.Buckets(); got != 4 {
		t.Fatalf("Buckets = %d, want 4", got)
	}
	tbl.ShrinkOnce() // at the policy floor: must refuse
	if got := tbl.Buckets(); got != 4 {
		t.Fatalf("shrink below MinBuckets: Buckets = %d, want 4", got)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tbl.Get(i); !ok || v != int(i) {
			t.Fatalf("after shrinks: Get(%d) = %d,%v", i, v, ok)
		}
	}
	if tbl.Len() != n {
		t.Fatalf("Len = %d, want %d", tbl.Len(), n)
	}
}

// TestFlatAutoResizeChurn lets the policy drive growth and shrink of
// a flat table through insert/delete waves.
func TestFlatAutoResizeChurn(t *testing.T) {
	tbl := newFlatT(t, WithInitialBuckets(4),
		WithPolicy(Policy{MaxLoad: 4, MinLoad: 0.5, MinBuckets: 4}))
	const n = 4096
	fill(tbl, n)
	waitFor(t, func() bool { return tbl.Buckets() >= n/8 })
	for i := uint64(0); i < n; i++ {
		tbl.Delete(i)
	}
	waitFor(t, func() bool { return tbl.Buckets() <= 64 })
	if err := tbl.checkInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlatEngineTortureResizeStripeChurn is the flat engine's -race
// torture test: synchronization-free readers and batch readers assert
// the stable-key invariant (stable keys always present with their
// original values, never-inserted keys always absent) while writers
// churn a disjoint key range, a replacer rewrites the stable keys with
// their own values, an insert gauntlet proves exactly-one
// winner per contended key, and the table is simultaneously driven
// through copy-based resize toggling, with a second resizer running
// ExpandOnce/ShrinkOnce back to back so the stripe mask and the epoch
// keep moving.
func TestFlatEngineTortureResizeStripeChurn(t *testing.T) {
	tbl := newFlatT(t, WithInitialBuckets(64), WithPolicy(Policy{MinBuckets: 64}))
	const (
		stable  = 1024
		churnLo = uint64(1 << 20)
		churnN  = 512
		gauntN  = 256
	)
	fill(tbl, stable)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Point readers.
	for g := 0; g < 3; g++ {
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
					t.Errorf("stable key %d: got %d,%v", k, v, ok)
					return
				}
				if _, ok := h.Get(k + 2*churnLo); ok {
					t.Errorf("never-inserted key %d reported present", k+2*churnLo)
					return
				}
			}
		}(int64(g))
	}

	// Batch reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		keys := make([]uint64, 128)
		bv := make([]int, len(keys))
		bok := make([]bool, len(keys))
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range keys {
				keys[i] = uint64((i * 37) % stable)
			}
			tbl.GetBatch(keys, bv, bok)
			for i, k := range keys {
				if !bok[i] || bv[i] != int(k) {
					t.Errorf("GetBatch stable key %d: got %d,%v", k, bv[i], bok[i])
					return
				}
			}
		}
	}()

	// Churn writers on a disjoint range: point and batch sets/deletes.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ks := make([]uint64, 32)
			vs := make([]int, 32)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(2) == 0 {
					k := churnLo + uint64(rng.Intn(churnN))
					tbl.Set(k, int(k))
					tbl.Delete(k)
				} else {
					for i := range ks {
						ks[i] = churnLo + uint64(rng.Intn(churnN))
						vs[i] = int(ks[i])
					}
					tbl.SetBatch(ks, vs)
					tbl.DeleteBatch(ks)
				}
			}
		}(int64(100 + g))
	}

	// Value replacers on the stable keys, through every replacing write.
	// Each stores the value readers expect, so a reader that still
	// read a displaced inline slot after its deferred clear would see
	// zero and fail the stable-key check; resizes unbox the values
	// again, so the inline → box transition repeats every cycle.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(1 + rng.Intn(stable-1))
			switch rng.Intn(5) {
			case 0:
				tbl.Set(k, int(k))
			case 1:
				tbl.Swap(k, int(k))
			case 2:
				tbl.Replace(k, int(k))
			case 3:
				tbl.Update(k, func(int, bool) (int, bool) { return int(k), true })
			default:
				tbl.CompareAndSwapValue(k, nil, int(k))
			}
		}
	}()

	// Insert gauntlet: 4 goroutines race Insert on the same keys;
	// exactly one winner per key must be recorded in the ledger.
	var ledger [gauntN]atomic.Int32
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < gauntN; k++ {
				if tbl.Insert(3*churnLo+uint64(k), id) {
					ledger[k].Add(1)
				}
			}
		}(g)
	}

	// Back-to-back single steps, queueing behind the toggles below.
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

	// Copy-based resize churn, the main event.
	deadline := time.Now().Add(1500 * time.Millisecond)
	cycles := 0
	for time.Now().Before(deadline) {
		tbl.Resize(1024)
		tbl.Resize(64)
		cycles++
	}
	close(stop)
	wg.Wait()
	if cycles < 1 {
		t.Fatalf("resizer completed %d cycles; torture did not exercise migration", cycles)
	}
	for k := 0; k < gauntN; k++ {
		if n := ledger[k].Load(); n != 1 {
			t.Errorf("gauntlet key %d had %d insert winners, want exactly 1", k, n)
		}
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatalf("invariants after torture: %v", err)
	}
	st := tbl.Stats()
	if st.Expands == 0 || st.Shrinks == 0 {
		t.Fatalf("torture saw %d expands / %d shrinks; resize churn did not run", st.Expands, st.Shrinks)
	}
}

// TestFlatStatsMaxChain checks the flat engine's probe-length stat:
// occupied cells plus spill length of the fullest group.
func TestFlatStatsMaxChain(t *testing.T) {
	tbl := newFlatT(t, WithInitialBuckets(1), WithPolicy(Policy{MinBuckets: 1}))
	for i := uint64(0); i < 20; i++ {
		tbl.Set(i, int(i))
	}
	if st := tbl.Stats(); st.MaxChain != 20 {
		t.Fatalf("MaxChain = %d, want 20 (8 cells + 12 spilled)", st.MaxChain)
	}
}
