package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStripesOptionShapes pins the option plumbing: explicit counts
// round to powers of two within [1, maxStripes], and the default is
// a power of two in range.
func TestStripesOptionShapes(t *testing.T) {
	for _, tc := range []struct {
		give, want int
	}{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {256, 256}, {100000, maxStripes}, {-3, 1},
	} {
		tbl := NewUint64[int](WithStripes(tc.give))
		if got := tbl.Stripes(); got != tc.want {
			t.Errorf("WithStripes(%d): Stripes() = %d, want %d", tc.give, got, tc.want)
		}
		tbl.Close()
	}
	tbl := NewUint64[int]()
	defer tbl.Close()
	s := tbl.Stripes()
	if s < 1 || s > maxStripes || s&(s-1) != 0 {
		t.Fatalf("default Stripes() = %d, want a power of two in [1, %d]", s, maxStripes)
	}
	if st := tbl.Stats(); st.Stripes != s {
		t.Fatalf("Stats().Stripes = %d, want %d", st.Stripes, s)
	}
}

// TestEffectiveMaskTracksBuckets: the effective stripe mask must
// never exceed buckets-1 (or chains would mix stripes), and must
// recover as the table grows back.
func TestEffectiveMaskTracksBuckets(t *testing.T) {
	tbl := NewUint64[int](WithStripes(64), WithInitialBuckets(256))
	defer tbl.Close()
	check := func(wantBuckets uint64) {
		t.Helper()
		m := tbl.stripes.mask.Load()
		want := effectiveStripeMask(64, wantBuckets)
		if m != want {
			t.Fatalf("at %d buckets: mask = %d, want %d", wantBuckets, m, want)
		}
	}
	check(256)
	fill(tbl, 100)
	tbl.Resize(4) // below the stripe count: mask must shrink with it
	check(4)
	verifyAll(t, tbl, 100)
	tbl.Resize(1)
	check(1)
	verifyAll(t, tbl, 100)
	tbl.Resize(512)
	check(512)
	verifyAll(t, tbl, 100)
}

// TestTortureStripedWritersAutoAndExplicitResize is the write-write
// torture test for per-bucket locking: many concurrent writers on
// one table, auto-resize triggering underneath them, and a goroutine
// issuing explicit Resizes across the stripe-count boundary — all
// three lock choreographies (point stripe, batch sorted-stripe,
// resize all-stripes + per-batch) colliding. Run under -race.
//
// Invariants asserted throughout and at the end:
//   - stable keys (written once, never touched again) are always
//     found with their exact value;
//   - absent keys (a range never written) are never found;
//   - every writer's final write to its private slice is the value
//     read back afterwards (no lost updates between stripes);
//   - structural invariants hold (home reachability, counts).
func TestTortureStripedWritersAutoAndExplicitResize(t *testing.T) {
	tbl := NewUint64[int](
		WithInitialBuckets(64),
		WithStripes(16),
		WithPolicy(Policy{MaxLoad: 2, MinLoad: 0.25, MinBuckets: 8}),
	)
	defer tbl.Close()

	const (
		stable      = 512
		absentBase  = uint64(1) << 40
		volatileLen = uint64(2048)
		writers     = 8
	)
	fill(tbl, stable)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var stableMisses, absentHits atomic.Int64

	// Readers: stable keys must always be present, absent keys never.
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
					stableMisses.Add(1)
				}
				if _, ok := h.Get(absentBase + uint64(rng.Intn(1<<20))); ok {
					absentHits.Add(1)
				}
			}
		}(int64(g + 1))
	}

	// Writers: each churns a private volatile range with every write
	// path (point, swap, batch), so distinct-key updates exercise
	// distinct stripes concurrently.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			base := (id + 1) << 24
			rng := rand.New(rand.NewSource(int64(id) + 77))
			bks := make([]uint64, 16)
			bvs := make([]int, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := base + uint64(rng.Intn(int(volatileLen)))
				switch rng.Intn(5) {
				case 0:
					tbl.Set(k, int(k))
				case 1:
					if old, ok := tbl.Swap(k, int(k)); ok && old != int(k) {
						t.Errorf("Swap(%d) displaced %d, want %d", k, old, k)
						return
					}
				case 2:
					tbl.Delete(k)
				case 3:
					for i := range bks {
						bks[i] = base + uint64(rng.Intn(int(volatileLen)))
						bvs[i] = int(bks[i])
					}
					tbl.SetBatch(bks, bvs)
				case 4:
					for i := range bks {
						bks[i] = base + uint64(rng.Intn(int(volatileLen)))
					}
					tbl.DeleteBatch(bks)
				}
			}
		}(uint64(w))
	}

	// Explicit resizer: jump across the stripe-count boundary in both
	// directions so the effective mask rises and falls mid-churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []uint64{8, 1024, 64, 4096, 16}
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			tbl.Resize(sizes[i%len(sizes)])
			i++
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := stableMisses.Load(); n != 0 {
		t.Fatalf("%d stable-key lookups missed during striped-writer churn", n)
	}
	if n := absentHits.Load(); n != 0 {
		t.Fatalf("%d absent-key lookups hit during striped-writer churn", n)
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

// TestSwapLostUpdateFreedom: N writers hammer ONE shared key with
// Swap, each publishing distinguishable tokens. Swap's contract under
// per-stripe locking is that the read-out and replacement are atomic
// per key, so the table's value history forms a single chain: every
// published token must be displaced exactly once — by exactly one
// later Swap — or survive as the final value. A lost update would
// surface as a token displaced twice (two Swaps observed the same
// old value) and another token never displaced. internal/cache's
// cost accounting is built on exactly this property.
func TestSwapLostUpdateFreedom(t *testing.T) {
	tbl := NewUint64[int](
		WithInitialBuckets(16),
		WithPolicy(Policy{MaxLoad: 2, MinLoad: 0.25, MinBuckets: 8}),
	)
	defer tbl.Close()

	const (
		writers   = 8
		perWriter = 5000
		sharedKey = uint64(42)
	)

	// Background churn so the shared key's bucket moves between
	// chains while the Swaps race.
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tbl.Set(uint64(1000+i%500), i)
			if i%100 == 0 {
				tbl.ExpandOnce()
				tbl.ShrinkOnce()
			}
		}
	}()

	displaced := make([][]int, writers)
	var firstInserts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mine := make([]int, 0, perWriter)
			for i := 0; i < perWriter; i++ {
				token := id*perWriter + i + 1 // nonzero, globally unique
				old, replaced := tbl.Swap(sharedKey, token)
				if !replaced {
					firstInserts.Add(1)
					continue
				}
				mine = append(mine, old)
			}
			displaced[id] = mine
		}(w)
	}
	wg.Wait()
	close(stop)
	churnWG.Wait()

	if n := firstInserts.Load(); n != 1 {
		t.Fatalf("%d Swaps observed an absent key; exactly 1 (the first) may", n)
	}
	final, ok := tbl.Get(sharedKey)
	if !ok {
		t.Fatal("shared key absent after the Swap storm")
	}

	seen := make(map[int]int, writers*perWriter)
	total := 0
	for _, mine := range displaced {
		for _, tok := range mine {
			seen[tok]++
			total++
		}
	}
	if seen[final] != 0 {
		t.Fatalf("final value %d was also displaced: a Swap was lost", final)
	}
	for tok, n := range seen {
		if n != 1 {
			t.Fatalf("token %d displaced %d times: concurrent Swaps observed the same old value", tok, n)
		}
	}
	// Chain accounting: every swap's token left the table exactly
	// once except the final survivor.
	if want := writers*perWriter - 1; total != want {
		t.Fatalf("displaced-token count = %d, want %d (one token per Swap minus the survivor)",
			total, want)
	}
}

// TestBatchWritesAcrossStripeBoundary: batch writers grouped under a
// stale stripe mask must still land correctly when explicit resizes
// move the mask mid-batch (the batchWriter re-locks under the live
// mask per key).
func TestBatchWritesAcrossStripeBoundary(t *testing.T) {
	tbl := NewUint64[int](WithInitialBuckets(512), WithStripes(64))
	defer tbl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tbl.Resize(2) // mask 1
			tbl.Resize(1024)
		}
	}()

	const rounds = 200
	ks := make([]uint64, 64)
	vs := make([]int, 64)
	for r := 0; r < rounds; r++ {
		for i := range ks {
			ks[i] = uint64(r*len(ks) + i)
			vs[i] = int(ks[i])
		}
		if ins := tbl.SetBatch(ks, vs); ins != len(ks) {
			t.Fatalf("round %d: SetBatch inserted %d, want %d", r, ins, len(ks))
		}
		if rem := tbl.DeleteBatch(ks[:32]); rem != 32 {
			t.Fatalf("round %d: DeleteBatch removed %d, want 32", r, rem)
		}
	}
	close(stop)
	wg.Wait()

	for r := 0; r < rounds; r++ {
		for i := 32; i < 64; i++ {
			k := uint64(r*64 + i)
			if v, ok := tbl.Get(k); !ok || v != int(k) {
				t.Fatalf("Get(%d) = %d,%v after batch churn", k, v, ok)
			}
		}
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGrowBackpressureBoundsLoad: striped writers no longer block
// for a whole resize, so a saturating writer could outrun background
// expansion and drive the load factor arbitrarily high (observed as
// a death spiral on a loaded box: longer chains -> more unzip passes
// -> slower resizes -> longer chains). The backpressure path in
// maybeAutoResize must bound the overshoot: any write observing load
// above growBackpressureFactor x MaxLoad performs the resize
// synchronously, so a single writer can never leave the table beyond
// that band.
func TestGrowBackpressureBoundsLoad(t *testing.T) {
	const maxLoad = 2.0
	tbl := NewUint64[int](
		WithInitialBuckets(64),
		WithPolicy(Policy{MaxLoad: maxLoad, MinBuckets: 64}),
	)
	defer tbl.Close()

	// Saturating fill, as fast as one goroutine can go. Background
	// readers keep grace periods honest (non-trivial Synchronize).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := tbl.NewReadHandle()
			defer h.Close()
			var k uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				k++
				h.Get(k % 100000)
			}
		}()
	}
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		tbl.Set(i, int(i))
	}
	close(stop)
	wg.Wait()

	load := float64(tbl.Len()) / float64(tbl.Buckets())
	if limit := growBackpressureFactor*maxLoad + 1; load > limit {
		t.Fatalf("load factor %.1f after saturating fill exceeds the backpressure band %.1f (buckets=%d len=%d)",
			load, limit, tbl.Buckets(), tbl.Len())
	}
	for i := uint64(0); i < n; i += 997 {
		if v, ok := tbl.Get(i); !ok || v != int(i) {
			t.Fatalf("Get(%d) = %d,%v after backpressured fill", i, v, ok)
		}
	}
}

// TestDeleteDuringUnzipPatchesSibling is the regression test for the
// one genuinely new hazard of per-bucket locking: mid-unzip, a node
// can be reachable from BOTH children of its parent bucket, and a
// delete that unlinks it from only its home chain would leave the
// sibling chain running through the dead node. The deterministic
// schedule below parks an expansion after each unzip pass (test hook),
// deletes keys while chains are provably zipped, checks right there
// that no bucket still reaches a deleted node (checkInvariants'
// dead-node rule — what fails when unlinkSiblingLocked is disabled),
// and finally verifies nothing else vanished.
func TestDeleteDuringUnzipPatchesSibling(t *testing.T) {
	// Identity hash, 1 bucket -> alternating chain, worst-case zip.
	tbl := New[uint64, int](func(k uint64) uint64 { return k }, WithInitialBuckets(1))
	defer tbl.Close()
	const n = 64
	for i := uint64(0); i < n; i++ {
		tbl.Set(i, int(i))
	}

	deleted := make(map[uint64]bool)
	next := uint64(1) // delete odd keys, mid-chain positions
	tbl.testHookAfterUnzipPass = func(int) {
		// Chains are mid-unzip here (zipped suffixes).
		for j := 0; j < 3 && next < n; j++ {
			if tbl.Delete(next) {
				deleted[next] = true
			}
			next += 2
		}
		if err := tbl.checkInvariants(); err != nil {
			t.Error(err)
		}
	}
	for tbl.Buckets() < 64 {
		tbl.ExpandOnce()
	}
	tbl.testHookAfterUnzipPass = nil

	if len(deleted) == 0 {
		t.Skip("no unzip passes ran; nothing exercised")
	}
	for i := uint64(0); i < n; i++ {
		v, ok := tbl.Get(i)
		if deleted[i] {
			if ok {
				t.Fatalf("deleted key %d still present", i)
			}
			continue
		}
		if !ok || v != int(i) {
			t.Fatalf("surviving key %d = %d,%v — sibling chain truncated by mid-unzip delete", i, v, ok)
		}
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
