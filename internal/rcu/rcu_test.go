package rcu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// syncWithin runs d.Synchronize and fails the test if it does not
// return within the deadline — a watchdog against grace-period hangs.
func syncWithin(t *testing.T, d *Domain, deadline time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("Synchronize did not complete within %v", deadline)
	}
}

func TestSynchronizeNoReaders(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	syncWithin(t, d, 5*time.Second)
}

func TestSynchronizeQuiescentReaders(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	for i := 0; i < 8; i++ {
		defer d.Register().Close()
	}
	syncWithin(t, d, 5*time.Second)
}

func TestReaderNesting(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	r := d.Register()
	defer r.Close()

	r.Lock()
	r.Lock()
	if !r.Active() {
		t.Fatal("reader should be active inside nested section")
	}
	r.Unlock()
	if !r.Active() {
		t.Fatal("reader should stay active until outermost Unlock")
	}
	if s := r.state.Load(); s == quiescent {
		t.Fatal("state went quiescent before outermost Unlock")
	}
	r.Unlock()
	if r.Active() {
		t.Fatal("reader should be quiescent after outermost Unlock")
	}
	if s := r.state.Load(); s != quiescent {
		t.Fatalf("state = %d after outermost Unlock, want quiescent", s)
	}
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	r := d.Register()
	defer r.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock without Lock should panic")
		}
	}()
	r.Unlock()
}

func TestCloseInsideSectionPanics(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	r := d.Register()
	r.Lock()
	defer func() {
		if recover() == nil {
			t.Fatal("Close inside critical section should panic")
		}
		r.Unlock()
		r.Close()
	}()
	r.Close()
}

// TestGracePeriodWaitsForPreexistingReader is the core RCU contract:
// Synchronize must not return while a section that began before it is
// still open.
func TestGracePeriodWaitsForPreexistingReader(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	r := d.Register()
	defer r.Close()

	r.Lock()
	synced := make(chan struct{})
	go func() {
		d.Synchronize()
		close(synced)
	}()

	// The synchronizer must be stuck while we hold the section open.
	select {
	case <-synced:
		t.Fatal("Synchronize returned while a pre-existing reader was active")
	case <-time.After(50 * time.Millisecond):
	}

	r.Unlock()
	select {
	case <-synced:
	case <-time.After(5 * time.Second):
		t.Fatal("Synchronize did not return after reader exited")
	}
}

// TestGracePeriodIgnoresNewReaders: a section that begins after
// Synchronize has bumped the epoch must not delay it.
func TestGracePeriodIgnoresNewReaders(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	rOld := d.Register()
	defer rOld.Close()
	rNew := d.Register()
	defer rNew.Close()

	rOld.Lock()
	started := make(chan struct{})
	synced := make(chan struct{})
	go func() {
		close(started)
		d.Synchronize()
		close(synced)
	}()
	<-started
	// Give the synchronizer a moment to bump the epoch, then start a
	// new reader section and keep it open "forever".
	time.Sleep(20 * time.Millisecond)
	rNew.Lock()
	defer rNew.Unlock()

	rOld.Unlock()
	select {
	case <-synced:
		// Synchronize returned even though rNew is still inside its
		// (post-epoch-bump) section.
	case <-time.After(5 * time.Second):
		t.Fatal("Synchronize stalled on a reader that began after the grace period started")
	}
}

// TestPublicationVisibility exercises the writer protocol end to end:
// initialize, publish, synchronize, retire — a reader that saw the old
// pointer must be gone by the time Synchronize returns.
func TestPublicationVisibility(t *testing.T) {
	type payload struct{ v int }
	d := NewDomain()
	defer d.Close()

	var ptr atomic.Pointer[payload]
	ptr.Store(&payload{v: 1})

	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sawZero atomic.Bool
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := d.Register()
			defer r.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Lock()
				p := ptr.Load()
				if p == nil || p.v == 0 {
					sawZero.Store(true)
				}
				r.Unlock()
			}
		}()
	}

	// Writer: repeatedly publish a fresh value, wait a grace period,
	// then "poison" the retired object. If any reader could still see
	// the retired object after Synchronize, it would observe v == 0.
	for i := 2; i < 50; i++ {
		old := ptr.Load()
		ptr.Store(&payload{v: i})
		d.Synchronize()
		old.v = 0 // would be a use-after-free in C; here it is a detector
	}
	close(stop)
	wg.Wait()
	if sawZero.Load() {
		t.Fatal("a reader observed a retired object after its grace period")
	}
}

func TestDeferRunsAfterGracePeriod(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	r := d.Register()
	defer r.Close()

	r.Lock()
	var ran atomic.Bool
	d.Defer(func() { ran.Store(true) })

	time.Sleep(50 * time.Millisecond)
	if ran.Load() {
		t.Fatal("Defer callback ran while a pre-existing reader was active")
	}
	r.Unlock()

	deadline := time.After(5 * time.Second)
	for !ran.Load() {
		select {
		case <-deadline:
			t.Fatal("Defer callback never ran")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestDeferOrdering(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	// A burst: all but the first Defer onto an empty queue skip the
	// reclaimer wake-up, and every one must still run, in queue order.
	const n = 10_000
	var mu sync.Mutex
	var got []int
	for i := 0; i < n; i++ {
		i := i
		d.Defer(func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		})
	}
	d.Barrier()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("ran %d callbacks before barrier, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if got[i] != i {
			t.Fatalf("callback %d ran in position of %d, want queue order", got[i], i)
		}
	}
}

func TestBarrier(t *testing.T) {
	d := NewDomain()
	var n atomic.Int64
	burst := func() {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2500; i++ {
					d.Defer(func() { n.Add(1) })
				}
			}()
		}
		wg.Wait()
	}
	burst()
	d.Barrier()
	if n.Load() != 10_000 {
		t.Fatalf("after Barrier, %d callbacks ran, want 10000", n.Load())
	}
	// Close drains whatever is still queued, with no Barrier to help.
	burst()
	d.Close()
	if n.Load() != 20_000 {
		t.Fatalf("after Close, %d callbacks ran, want 20000", n.Load())
	}
}

func TestDomainRead(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	ran := false
	d.Read(func() { ran = true })
	if !ran {
		t.Fatal("Read did not run the function")
	}
	// Pooled readers must be reusable and not corrupt nesting.
	for i := 0; i < 100; i++ {
		d.Read(func() {
			d.Read(func() {}) // nested Read via a second pooled reader
		})
	}
	syncWithin(t, d, 5*time.Second)
}

func TestStats(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	r := d.Register()
	defer r.Close()

	before := d.Stats()
	d.Synchronize()
	d.Defer(func() {})
	d.Barrier()
	after := d.Stats()

	if after.GracePeriods <= before.GracePeriods {
		t.Errorf("grace periods did not advance: %v -> %v", before, after)
	}
	if after.Epoch <= before.Epoch {
		t.Errorf("epoch did not advance: %v -> %v", before, after)
	}
	if after.Epoch%2 != 0 {
		t.Errorf("epoch must stay even, got %d", after.Epoch)
	}
	if after.Deferred < 2 || after.DeferredRan < 2 {
		t.Errorf("deferred counters not tracked: %v", after)
	}
	if after.Readers != 1 {
		t.Errorf("Readers = %d, want 1", after.Readers)
	}
	if after.String() == "" {
		t.Error("Stats.String is empty")
	}
}

func TestCloseIdempotent(t *testing.T) {
	d := NewDomain()
	d.Close()
	d.Close() // second Close must not hang or panic
}

// TestDeferAfterCloseRunsSynchronously: with the reclaimer gone, a
// post-Close Defer must still honor the contract — fn runs after a
// full grace period — by synchronizing and running fn on the caller
// before Defer returns.
func TestDeferAfterCloseRunsSynchronously(t *testing.T) {
	d := NewDomain()
	before := d.Stats()
	d.Close()
	ran := false
	d.Defer(func() { ran = true })
	if !ran {
		t.Fatal("post-Close Defer did not run the callback before returning")
	}
	after := d.Stats()
	if after.GracePeriods <= before.GracePeriods {
		t.Fatal("post-Close Defer did not wait a grace period before running fn")
	}
	if after.DeferredRan != after.Deferred {
		t.Fatalf("counters out of sync after post-Close Defer: queued=%d ran=%d",
			after.Deferred, after.DeferredRan)
	}
}

// TestDeferAfterCloseWaitsForReaders: the synchronous fallback must
// still wait for in-flight reader sections, not just return.
func TestDeferAfterCloseWaitsForReaders(t *testing.T) {
	d := NewDomain()
	r := d.Register()
	d.Close()

	r.Lock()
	done := make(chan struct{})
	go func() {
		d.Defer(func() {})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("post-Close Defer completed while a reader section was open")
	case <-time.After(20 * time.Millisecond):
	}
	r.Unlock() // the release: Defer's grace period may now complete
	<-done
	r.Close()
}

func TestManySynchronizersProgress(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				d.Synchronize()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent synchronizers did not make progress")
	}
}

func TestEpochMonotoneUnderConcurrency(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := d.Register()
			defer r.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Lock()
				r.Unlock()
			}
		}()
	}
	var last uint64
	for i := 0; i < 200; i++ {
		d.Synchronize()
		e := d.Stats().Epoch
		if e <= last {
			t.Fatalf("epoch not strictly increasing across grace periods: %d then %d", last, e)
		}
		if e%2 != 0 {
			t.Fatalf("epoch %d not even", e)
		}
		last = e
	}
	close(stop)
	wg.Wait()
}

// TestGraceWaitingSinceNanos checks the in-flight wait stamp the
// anomaly watchdog ages: zero when idle, the oldest waiter's arrival
// time while a grace period is blocked on an open section, zero again
// once the waiter drains.
func TestGraceWaitingSinceNanos(t *testing.T) {
	d := NewDomain()
	defer d.Close()
	if got := d.GraceWaitingSinceNanos(); got != 0 {
		t.Fatalf("idle stamp = %d, want 0", got)
	}

	r := d.Register()
	r.Lock() // pin the grace period open
	before := time.Now().UnixNano()
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for d.GraceWaitingSinceNanos() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stamp never set while Synchronize waits")
		}
		time.Sleep(time.Millisecond)
	}
	if stamp := d.GraceWaitingSinceNanos(); stamp < before || stamp > time.Now().UnixNano() {
		t.Fatalf("stamp %d outside [%d, now]", stamp, before)
	}
	if !d.GPWaiting() {
		t.Fatal("GPWaiting false while stamped")
	}

	r.Unlock()
	<-done
	r.Close()
	for d.GraceWaitingSinceNanos() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("stamp never cleared after the waiter drained")
		}
		time.Sleep(time.Millisecond)
	}
}
