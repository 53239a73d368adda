package rcu

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"rphash/internal/obs"
)

// cacheLine is the assumed cache-line size used to pad per-reader
// state so that readers on different cores never false-share.
const cacheLine = 64

// quiescent is the reader state meaning "not inside a critical section".
const quiescent = 0

// Domain is an independent RCU domain: a set of registered readers and
// a grace-period clock. Data structures that never share readers may
// use separate domains; a Synchronize in one domain does not wait for
// readers of another.
//
// Lifecycle: NewDomain starts a background reclaimer goroutine that
// runs Defer callbacks after grace periods; Close drains pending
// callbacks and stops it. Synchronize, Register, and the reader
// fast paths remain usable after Close — only the asynchronous
// reclaimer is gone, so a post-Close Defer degrades gracefully: it
// waits a full grace period and runs the callback synchronously on
// the caller, preserving Defer's contract (fn runs only once no
// reader can hold what it retires) at the cost of making the caller
// pay the wait. That keeps late retirements from shutdown paths —
// e.g. a final Delete racing a table Close — correct instead of
// fatal.
//
// The zero value is not usable; call NewDomain.
type Domain struct {
	// epoch is the global grace-period clock. Always even. Starts at 2
	// so that no legal reader state (epoch|1) is ever < 2 while active.
	epoch atomic.Uint64

	// syncMu serializes grace periods. Concurrent Synchronize calls
	// piggyback: each still observes a full grace period of its own
	// because epochs are monotonic.
	syncMu sync.Mutex

	// regMu protects the reader registries.
	//
	// The delimited-reader registry holds WEAK pointers. The reader
	// pool below is drained wholesale by the garbage collector
	// (sync.Pool semantics), and pooled reads (Domain.Read,
	// AcquireReader) refill it constantly; with strong registry
	// references every drained reader would stay registered forever —
	// quiescent, but a permanent extra scan slot for every future
	// grace period, and a slow leak. A weak registry instead tracks exactly the readers
	// somebody can still use: a reader is strongly referenced while
	// pooled, checked out, or held by a handle, and one the collector
	// has dropped can never enter a section again, so Synchronize
	// skipping (and pruning) it is precisely correct.
	regMu   sync.Mutex
	readers map[weak.Pointer[Reader]]struct{}
	qsbr    []*QSBRReader

	// pool recycles anonymous readers used by Domain.Read.
	pool sync.Pool

	// Deferred-callback machinery (the call_rcu analogue).
	defMu     sync.Mutex
	defQ      []func()
	defWake   chan struct{}
	defDone   chan struct{}
	defClosed bool

	// doneCh is closed the moment Close begins, before the reclaimer
	// drains. Background maintenance goroutines (cache sweepers)
	// select on Done() so they observe shutdown promptly instead of
	// discovering it on their next Defer.
	doneCh chan struct{}

	// gpWaiters counts Synchronize calls currently waiting. QSBR
	// readers poll it (one shared read) to quiesce promptly when a
	// writer is stalled on them.
	gpWaiters atomic.Int32

	// graceWaitNS is the UnixNano stamp of the moment the OLDEST
	// currently-waiting Synchronize arrived (0 when none is waiting).
	// Telemetry only: the anomaly watchdog reads it to age a stalled
	// grace period; no protocol decision ever depends on it.
	graceWaitNS atomic.Int64

	// Statistics (atomic; exposed via Stats).
	nSync     atomic.Uint64
	nDeferred atomic.Uint64
	nRan      atomic.Uint64

	// graceObs, when set (ObserveGraceWaits), receives the wall time
	// of every completed Synchronize — the grace-period wait latency
	// distribution. Off (nil) costs one atomic pointer load per grace
	// period.
	graceObs atomic.Pointer[obs.Histogram]
}

// DomainStats is a snapshot of a domain's counters.
type DomainStats struct {
	Epoch        uint64 // current grace-period clock (even)
	GracePeriods uint64 // completed Synchronize calls
	Readers      int    // currently registered delimited readers
	QSBRReaders  int    // currently registered QSBR readers
	Deferred     uint64 // callbacks ever queued via Defer
	DeferredRan  uint64 // callbacks that have run
}

// NewDomain creates a Domain with a running background reclaimer for
// Defer callbacks.
func NewDomain() *Domain {
	d := &Domain{
		readers: make(map[weak.Pointer[Reader]]struct{}),
		defWake: make(chan struct{}, 1),
		defDone: make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	d.epoch.Store(2)
	d.pool.New = func() any { return d.Register() }
	go d.reclaimer()
	return d
}

// Register creates and registers a Reader owned by the calling
// goroutine. A Reader must only ever be used by one goroutine at a
// time; a goroutine that is done reading should call Reader.Close to
// deregister (leaking a quiescent reader is harmless but costs the
// synchronizer one extra scan slot).
func (d *Domain) Register() *Reader {
	r := &Reader{dom: d}
	d.regMu.Lock()
	// Amortized registry hygiene: probe a few entries and drop the
	// collected ones. Synchronize also prunes, but a workload that
	// never resizes never synchronizes, and the pool refill cycle
	// (GC drains the pool, the next pooled read re-registers) would
	// otherwise grow the map without bound — each Register can orphan
	// at most one prior entry, and four random-start probes reclaim
	// dead ones faster than that, so the map stays within a small
	// factor of the live reader count.
	probes := 0
	for w := range d.readers {
		if w.Value() == nil {
			delete(d.readers, w)
		}
		if probes++; probes >= 4 {
			break
		}
	}
	d.readers[weak.Make(r)] = struct{}{}
	d.regMu.Unlock()
	return r
}

// Reader is a registered relativistic reader. The hot-path methods
// Lock and Unlock are wait-free: one atomic load plus one atomic store
// each (plus a re-check load on Lock), all on a private cache line.
type Reader struct {
	_     [0]func() // not comparable by accident; also blocks copying lint-wise
	state atomic.Uint64
	nest  int32
	dom   *Domain
	_pad  [cacheLine - 8 - 4 - 8]byte //nolint:unused // layout padding
}

// Lock enters a read-side critical section. Sections nest.
func (r *Reader) Lock() {
	r.nest++
	if r.nest > 1 {
		return
	}
	for {
		e := r.dom.epoch.Load()
		r.state.Store(e | 1)
		// Re-check: if a synchronizer bumped the epoch between our
		// load and store, republish so it cannot have missed us while
		// we sit in a pre-bump section. See package docs.
		if r.dom.epoch.Load() == e {
			return
		}
	}
}

// Unlock leaves the current read-side critical section.
func (r *Reader) Unlock() {
	if r.nest <= 0 {
		panic("rcu: Reader.Unlock without matching Lock")
	}
	r.nest--
	if r.nest == 0 {
		r.state.Store(quiescent)
	}
}

// Active reports whether the reader is currently inside a critical
// section. Only the owning goroutine may call it.
func (r *Reader) Active() bool { return r.nest > 0 }

// Close deregisters the reader. It must not be inside a critical
// section. Using the Reader after Close is a bug.
func (r *Reader) Close() {
	if r.nest != 0 {
		panic("rcu: Reader.Close inside critical section")
	}
	// weak.Make on the same pointer yields the same (comparable)
	// handle, so this deletes the entry Register created.
	r.dom.regMu.Lock()
	delete(r.dom.readers, weak.Make(r))
	r.dom.regMu.Unlock()
}

// Read runs fn inside a read-side critical section using a pooled
// reader. It is the convenient form for callers that do not hold a
// long-lived Reader; hot loops should Register their own Reader to
// avoid the pool overhead.
func (d *Domain) Read(fn func()) {
	r := d.pool.Get().(*Reader)
	r.Lock()
	defer func() {
		r.Unlock()
		d.pool.Put(r)
	}()
	fn()
}

// AcquireReader borrows a registered reader from the domain's
// internal pool — the same pool Read uses — for callers that compose
// several short read-side critical sections in one call (batch
// lookups spanning multiple tables) and want to pay the pool
// round-trip once rather than per section. The reader is returned
// quiescent; bracket each section with Lock/Unlock and hand the
// reader back with ReleaseReader. Like any Reader it must only be
// used by one goroutine at a time.
func (d *Domain) AcquireReader() *Reader { return d.pool.Get().(*Reader) }

// ReleaseReader returns a reader obtained from AcquireReader to the
// pool. The reader must be quiescent (outside any critical section)
// and must not be used afterwards.
func (d *Domain) ReleaseReader(r *Reader) {
	if r.nest != 0 {
		panic("rcu: ReleaseReader inside critical section")
	}
	d.pool.Put(r)
}

// ObserveGraceWaits installs a histogram that receives every
// subsequent Synchronize's wall time (nil uninstalls). The histogram
// must be lock-free to record into, which obs.Histogram is; the wait
// itself is not perturbed — timing costs two clock reads per grace
// period, which last microseconds at minimum.
func (d *Domain) ObserveGraceWaits(h *obs.Histogram) { d.graceObs.Store(h) }

// Synchronize waits for a full grace period: it returns only after
// every read-side critical section that began before the call has
// ended. It never blocks readers; it only blocks the caller.
func (d *Domain) Synchronize() {
	var t0 time.Time
	gobs := d.graceObs.Load()
	if gobs != nil {
		t0 = time.Now()
	}
	if d.gpWaiters.Add(1) == 1 {
		d.graceWaitNS.Store(time.Now().UnixNano())
	}
	defer func() {
		if d.gpWaiters.Add(-1) == 0 {
			d.graceWaitNS.Store(0)
		}
	}()
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	target := d.epoch.Add(2) // new, even epoch

	// Snapshot the registries. Readers registered after the snapshot
	// cannot have been in a pre-target section: Register happens
	// before their first Lock/Online, which will observe epoch >=
	// target.
	d.regMu.Lock()
	snapshot := make([]*Reader, 0, len(d.readers))
	for w := range d.readers {
		if r := w.Value(); r != nil {
			snapshot = append(snapshot, r)
		} else {
			// The collector dropped this reader (pool drain): it was
			// quiescent then and can never enter a section again.
			// Prune the dead handle so the registry tracks only
			// usable readers.
			delete(d.readers, w)
		}
	}
	qsnapshot := make([]*QSBRReader, len(d.qsbr))
	copy(qsnapshot, d.qsbr)
	d.regMu.Unlock()

	// Both reader flavors publish the same state encoding (0 =
	// quiescent/offline, else epoch|1), so one wait predicate covers
	// them: quiescent, or provably entered/announced after target.
	for _, r := range snapshot {
		waitFor(&r.state, target)
	}
	for _, r := range qsnapshot {
		waitFor(&r.state, target)
	}
	d.nSync.Add(1)
	if gobs != nil {
		// Measured from before syncMu: a Synchronize queued behind
		// another's grace period reports its full wait, which is what
		// a blocked writer experiences.
		gobs.RecordSince(0, t0)
	}
}

// GPWaiting reports whether a grace period is currently waiting for
// readers. QSBR readers use it to quiesce eagerly: checking costs one
// load of a line that only changes when a Synchronize starts or ends.
func (d *Domain) GPWaiting() bool { return d.gpWaiters.Load() != 0 }

// GraceWaitingSinceNanos returns the UnixNano timestamp at which the
// oldest currently-waiting Synchronize began waiting, or 0 when no
// grace period is in flight. The anomaly watchdog exports it so a
// stalled reader (a section that never ends) shows up with its age
// rather than as a mute hung writer.
func (d *Domain) GraceWaitingSinceNanos() int64 { return d.graceWaitNS.Load() }

// waitFor spins (yielding, then sleeping) until the reader state is
// quiescent or newer than the target epoch.
func waitFor(state *atomic.Uint64, target uint64) {
	for spins := 0; ; spins++ {
		s := state.Load()
		if s == quiescent || s >= target {
			return
		}
		if spins < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// Defer schedules fn to run after a future grace period, i.e. once
// every reader section that could currently hold a reference to
// whatever fn retires has ended. Callbacks run on the domain's
// reclaimer goroutine in queue order (batched: one grace period may
// cover many callbacks). After Close the reclaimer is gone, so Defer
// falls back to synchronous execution: it waits a grace period and
// runs fn on the calling goroutine before returning (see the Domain
// lifecycle notes).
func (d *Domain) Defer(fn func()) {
	d.defMu.Lock()
	if d.defClosed {
		d.defMu.Unlock()
		d.nDeferred.Add(1)
		d.Synchronize()
		fn()
		d.nRan.Add(1)
		return
	}
	d.defQ = append(d.defQ, fn)
	// Only the Defer that found the queue empty wakes the reclaimer,
	// which re-checks the queue under defMu before it sleeps again: a
	// burst pays one channel operation, not one per callback.
	wake := len(d.defQ) == 1
	d.defMu.Unlock()
	d.nDeferred.Add(1)
	if wake {
		select {
		case d.defWake <- struct{}{}:
		default:
		}
	}
}

// Barrier blocks until every callback queued by Defer before the call
// has run (the rcu_barrier analogue). Tests use it to make
// reclamation deterministic.
func (d *Domain) Barrier() {
	done := make(chan struct{})
	d.Defer(func() { close(done) })
	<-done
}

// Done returns a channel closed when the domain's Close begins.
// Long-running goroutines tied to the domain's lifetime (the cache's
// expiry sweeper, resize helpers) select on it to
// exit promptly on shutdown rather than polling or waiting to trip
// over a post-Close Defer.
func (d *Domain) Done() <-chan struct{} { return d.doneCh }

// Close shuts down the reclaimer after draining pending callbacks.
// The domain must not be used afterwards.
func (d *Domain) Close() {
	d.defMu.Lock()
	if d.defClosed {
		d.defMu.Unlock()
		return
	}
	d.defClosed = true
	close(d.doneCh)
	d.defMu.Unlock()
	select {
	case d.defWake <- struct{}{}:
	default:
	}
	<-d.defDone
}

// Stats returns a snapshot of domain counters.
func (d *Domain) Stats() DomainStats {
	d.regMu.Lock()
	n := 0
	for w := range d.readers {
		// Count only readers still reachable; dead handles linger
		// until the next Synchronize prunes them.
		if w.Value() != nil {
			n++
		}
	}
	q := len(d.qsbr)
	d.regMu.Unlock()
	return DomainStats{
		Epoch:        d.epoch.Load(),
		GracePeriods: d.nSync.Load(),
		Readers:      n,
		QSBRReaders:  q,
		Deferred:     d.nDeferred.Load(),
		DeferredRan:  d.nRan.Load(),
	}
}

// String implements fmt.Stringer for debugging.
func (s DomainStats) String() string {
	return fmt.Sprintf("epoch=%d grace-periods=%d readers=%d deferred=%d ran=%d",
		s.Epoch, s.GracePeriods, s.Readers, s.Deferred, s.DeferredRan)
}

// reclaimer is the background goroutine that turns queued Defer
// callbacks into "ran after a grace period" callbacks.
func (d *Domain) reclaimer() {
	defer close(d.defDone)
	for {
		<-d.defWake
		for {
			d.defMu.Lock()
			batch := d.defQ
			d.defQ = nil
			closed := d.defClosed
			d.defMu.Unlock()

			if len(batch) > 0 {
				d.Synchronize()
				for _, fn := range batch {
					fn()
					d.nRan.Add(1)
				}
				continue // re-check for work queued meanwhile
			}
			if closed {
				return
			}
			break
		}
	}
}
