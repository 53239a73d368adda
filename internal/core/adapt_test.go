package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rphash/internal/adapt"
)

// TestSetStripesShapes pins the runtime-retune plumbing: rounding and
// clamping match WithStripes, the effective mask tracks the new
// physical count and the bucket count, telemetry totals stay
// monotonic across the array swap, and the retune counter ticks.
func TestSetStripesShapes(t *testing.T) {
	tbl := NewUint64[int](WithStripes(8), WithInitialBuckets(256))
	defer tbl.Close()
	fill(tbl, 500)
	// Pure inserts ride the lock-free CAS fast path and record no
	// stripe telemetry; a replace pass over the same keys goes through
	// the stripes and generates the acquisitions this test pins.
	fill(tbl, 500)
	acqBefore, _ := tbl.ContentionCounters()
	if acqBefore == 0 {
		t.Fatal("no stripe acquisitions recorded by the preload replace writes")
	}

	for _, tc := range []struct {
		give, wantPhys, wantEff int
	}{
		{64, 64, 64},
		{63, 64, 64}, // rounds up, no-op vs current
		{100000, maxStripes, maxStripes},
		{-3, 1, 1},
		{2, 2, 2},
	} {
		tbl.SetStripes(tc.give)
		if got := tbl.Stripes(); got != tc.wantPhys {
			t.Errorf("SetStripes(%d): Stripes() = %d, want %d", tc.give, got, tc.wantPhys)
		}
		if got := tbl.EffectiveStripes(); got != tc.wantEff {
			t.Errorf("SetStripes(%d): EffectiveStripes() = %d, want %d", tc.give, got, tc.wantEff)
		}
		if err := tbl.checkStripeInvariants(); err != nil {
			t.Fatalf("after SetStripes(%d): %v", tc.give, err)
		}
	}

	// Telemetry survived the swaps (folded into the base counters).
	if acqAfter, _ := tbl.ContentionCounters(); acqAfter < acqBefore {
		t.Fatalf("ContentionCounters went backwards across retunes: %d -> %d", acqBefore, acqAfter)
	}
	if st := tbl.Stats(); st.StripeRetunes == 0 {
		t.Fatal("Stats().StripeRetunes = 0 after retuning")
	}

	// Retuning above the bucket count: effective stays bucket-capped.
	tbl.Resize(4)
	tbl.SetStripes(64)
	if got := tbl.EffectiveStripes(); got != 4 {
		t.Fatalf("EffectiveStripes() = %d with 4 buckets, want 4", got)
	}
	verifyAll(t, tbl, 500)
}

// TestTortureStripeRetune is the retuning companion of the striped
// writer torture test: concurrent point/batch writers, readers
// asserting stable and absent keys, auto-resize, an explicit resizer
// crossing the stripe boundary, AND a retuner cycling the physical
// stripe array through [1, 256] — every lock-array transition racing
// every writer choreography. Run under -race.
func TestTortureStripeRetune(t *testing.T) {
	tbl := NewUint64[int](
		WithInitialBuckets(64),
		WithStripes(16),
		WithUnzipWorkers(2), // migration fan-out in the mix too
		WithPolicy(Policy{MaxLoad: 2, MinLoad: 0.25, MinBuckets: 8}),
	)
	defer tbl.Close()

	const (
		stable     = 512
		absentBase = uint64(1) << 40
		volatile   = uint64(2048)
		writers    = 4
	)
	fill(tbl, stable)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var stableMisses, absentHits atomic.Int64

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

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			base := (id + 1) << 24
			rng := rand.New(rand.NewSource(int64(id) + 99))
			bks := make([]uint64, 16)
			bvs := make([]int, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := base + uint64(rng.Intn(int(volatile)))
				switch rng.Intn(4) {
				case 0:
					tbl.Set(k, int(k))
				case 1:
					tbl.Delete(k)
				case 2:
					for i := range bks {
						bks[i] = base + uint64(rng.Intn(int(volatile)))
						bvs[i] = int(bks[i])
					}
					tbl.SetBatch(bks, bvs)
				case 3:
					tbl.Move(k, base+volatile+k%volatile)
					tbl.Delete(base + volatile + k%volatile)
				}
			}
		}(uint64(w))
	}

	// The retuner: cycle the physical stripe array while everything
	// else churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []int{1, 64, 4, 256, 16}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tbl.SetStripes(sizes[i%len(sizes)])
		}
	}()

	// The telemetry poller: cumulative contention counters must never
	// go backwards, even while retunes fold retired arrays into the
	// base (the seqlock in ContentionCounters/SetStripes) — a
	// regression here underflows every delta-based consumer.
	var monotonicViolations atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastAcq, lastCon uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			acq, con := tbl.ContentionCounters()
			if acq < lastAcq || con < lastCon {
				monotonicViolations.Add(1)
			}
			lastAcq, lastCon = acq, con
		}
	}()

	// The explicit resizer, crossing the stripe boundary both ways. A
	// short breather between resizes keeps resizeMu from being held
	// continuously — SetStripes is a TryLock and a back-to-back
	// resize loop would starve every retune (real resizes are
	// separated by load shifts, not issued in a hot loop).
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []uint64{8, 1024, 64, 4096, 16}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tbl.Resize(sizes[i%len(sizes)])
			time.Sleep(200 * time.Microsecond)
			i++
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := stableMisses.Load(); n != 0 {
		t.Fatalf("%d stable-key lookups missed during retune churn", n)
	}
	if n := absentHits.Load(); n != 0 {
		t.Fatalf("%d absent-key lookups hit during retune churn", n)
	}
	if n := monotonicViolations.Load(); n != 0 {
		t.Fatalf("ContentionCounters went backwards %d times across retunes", n)
	}
	for i := uint64(0); i < stable; i++ {
		if v, ok := tbl.Get(i); !ok || v != int(i) {
			t.Fatalf("stable key %d = %d,%v after retune churn", i, v, ok)
		}
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := tbl.Stats(); st.StripeRetunes == 0 {
		t.Fatal("torture ran without a single stripe retune")
	}
}

// TestParallelUnzipDeterministic is the parallel-migration version of
// TestDeleteDuringUnzipPatchesSibling: with the fan-out >= 2, workers
// cut different stripes' parent chains concurrently, and the test
// hook deletes keys at zipped-chain junctions between passes, while
// sibling chains still interleave, and checks no bucket still reaches
// a deleted node.
// Identity hash and fixed delete schedule make the exercised states
// reproducible; -race checks the worker pool's sharing.
func TestParallelUnzipDeterministic(t *testing.T) {
	// 4 initial buckets, 4 stripes -> up to 4 migration batches per
	// pass, so 4 workers genuinely split each pass.
	tbl := New[uint64, int](func(k uint64) uint64 { return k },
		WithInitialBuckets(4), WithStripes(4), WithUnzipWorkers(4))
	defer tbl.Close()
	const n = 256
	for i := uint64(0); i < n; i++ {
		tbl.Set(i, int(i))
	}

	deleted := make(map[uint64]bool)
	next := uint64(1)
	tbl.testHookAfterUnzipPass = func(int) {
		for j := 0; j < 5 && next < n; j++ {
			if tbl.Delete(next) {
				deleted[next] = true
			}
			next += 2
		}
		if err := tbl.checkInvariants(); err != nil {
			t.Error(err)
		}
	}
	for tbl.Buckets() < 256 {
		tbl.ExpandOnce()
	}
	tbl.testHookAfterUnzipPass = nil

	if len(deleted) == 0 {
		t.Skip("no unzip passes ran; nothing exercised")
	}
	if st := tbl.Stats(); st.UnzipParallelPasses == 0 {
		t.Fatal("no unzip pass ran its migration batches in parallel")
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
			t.Fatalf("surviving key %d = %d,%v — chain truncated during parallel unzip", i, v, ok)
		}
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelUnzipDeleteRace races live deleter goroutines against
// >= 2 migration workers across the zipped sibling-chain junction —
// the PR 4 hazard — under -race. Deletes target mid-chain keys of
// every parent while expansions run with a parallel fan-out;
// surviving keys must remain reachable (a missed sibling patch or a
// racing cut would truncate a chain and lose the suffix).
func TestParallelUnzipDeleteRace(t *testing.T) {
	tbl := New[uint64, int](func(k uint64) uint64 { return k },
		WithInitialBuckets(8), WithStripes(8), WithUnzipWorkers(4))
	defer tbl.Close()
	const n = 4096
	for i := uint64(0); i < n; i++ {
		tbl.Set(i, int(i))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var deleters [2][]uint64
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Deleter 0 takes keys ≡ 1 (mod 4), deleter 1 keys ≡ 3
			// (mod 4): disjoint, always mid-chain for identity-hash
			// chains, spread across every parent and both children.
			for k := uint64(1 + 2*id); ; k += 4 {
				select {
				case <-stop:
					return
				default:
				}
				if k >= n {
					return
				}
				if tbl.Delete(k) {
					deleters[id] = append(deleters[id], k)
				}
			}
		}(d)
	}

	for tbl.Buckets() < 4096 {
		tbl.ExpandOnce()
	}
	close(stop)
	wg.Wait()

	if st := tbl.Stats(); st.UnzipParallelPasses == 0 {
		t.Fatal("expansions never ran migration batches in parallel")
	}
	deleted := make(map[uint64]bool)
	for _, ks := range deleters {
		for _, k := range ks {
			deleted[k] = true
		}
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
			t.Fatalf("key %d = %d,%v after parallel unzip vs delete race", i, v, ok)
		}
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUnzipWorkersClamp pins the fan-out setter's bounds.
func TestUnzipWorkersClamp(t *testing.T) {
	tbl := NewUint64[int]()
	defer tbl.Close()
	if got := tbl.UnzipWorkers(); got != 1 {
		t.Fatalf("default UnzipWorkers() = %d, want 1", got)
	}
	tbl.SetUnzipWorkers(-5)
	if got := tbl.UnzipWorkers(); got != 1 {
		t.Fatalf("UnzipWorkers() after SetUnzipWorkers(-5) = %d, want 1", got)
	}
	tbl.SetUnzipWorkers(10000)
	if got := tbl.UnzipWorkers(); got != maxUnzipWorkers {
		t.Fatalf("UnzipWorkers() after SetUnzipWorkers(10000) = %d, want %d", got, maxUnzipWorkers)
	}
	if got := tbl.UnzipBacklog(); got != 0 {
		t.Fatalf("UnzipBacklog() = %d on an idle table, want 0", got)
	}
}

// TestMaintainGrowsStripesUnderContention is the end-to-end adapt
// loop: real blocked stripe acquisitions must drive the sampled
// contention rate over the grow threshold and the controller must
// widen the physical stripe array via SetStripes. Physical lock
// contention cannot be manufactured reliably on a 1-core CI box with
// plain Sets (writers never truly overlap), so the contention source
// is one CompareAndDelete's match callback — which the table runs
// UNDER the key's stripe — sleeping while concurrent Sets pile up
// behind it: genuinely blocked TryLocks on any core count.
func TestMaintainGrowsStripesUnderContention(t *testing.T) {
	tbl := NewUint64[int](WithInitialBuckets(1024), WithStripes(1))
	defer tbl.Close()
	ctrl := tbl.Maintain(&adapt.Config{
		Interval:   10 * time.Millisecond,
		GrowRate:   0.05,
		GrowStreak: 1,
		MinStripes: 1,
		MaxStripes: 64,
		MinSamples: 8,
	})
	if ctrl == nil {
		t.Fatal("Maintain(cfg) returned no controller")
	}

	tbl.Set(7, 7)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Three slow writers on ONE key: each holds the key's stripe for
	// ~100µs per operation (the match callback runs under the stripe
	// lock and always declines), so whoever arrives while another
	// holds it fails its TryLock and blocks — near-100% contention
	// with no fast traffic to dilute the rate, on any core count.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tbl.CompareAndDelete(uint64(7), func(int) bool {
					time.Sleep(100 * time.Microsecond)
					return false
				})
			}
		}()
	}

	deadline := time.Now().Add(10 * time.Second)
	for tbl.Stripes() == 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if got := tbl.Stripes(); got == 1 {
		st, _ := tbl.AdaptStats()
		acq, con := tbl.ContentionCounters()
		t.Fatalf("controller never grew stripes under forced contention (samples=%d lastRate=%.4f acq=%d con=%d)",
			st.Samples, st.LastRate, acq, con)
	}
	st, ok := tbl.AdaptStats()
	if !ok || st.StripeGrows == 0 {
		t.Fatalf("AdaptStats() = %+v, %v; want StripeGrows > 0", st, ok)
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Maintain(nil) stops maintenance; AdaptStats reports off.
	tbl.Maintain(nil)
	if _, ok := tbl.AdaptStats(); ok {
		t.Fatal("AdaptStats() still on after Maintain(nil)")
	}
}
