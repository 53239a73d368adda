// Package core implements the paper's primary contribution: a
// resizable, open-chaining hash table whose lookups are completely
// synchronization-free ("relativistic") even while the table expands
// or shrinks underneath them.
//
// The consistency contract, verbatim from the paper: a reader
// traversing a hash bucket always observes every element that belongs
// to that bucket; observing extra (foreign) elements is harmless
// because readers compare keys anyway. Every mutation — insert,
// delete, move, zip-shrink, unzip-expand — preserves that superset
// invariant at every intermediate step, using only pointer
// publication and wait-for-readers from internal/rcu.
//
// Writers serialize per bucket, not per table: each mutation locks
// at most the stripe (see stripe.go) covering the chain its key
// hashes to, so writers to different buckets proceed in parallel.
// The common write takes no lock at all: pure inserts publish by a
// CAS on the bucket head and validate against the resize epoch
// (tryInsertCAS in update.go, undo via the stripe on mismatch), and
// upserts on existing keys store through a hint located without
// protection and revalidated under the stripe (casHintValid).
// Value-level read-modify-write compare-and-swaps the node's value
// pointer (CompareAndSwapValue), with no lock either. Resizes
// acquire every stripe briefly to swap the bucket array and then one
// stripe per migration batch for the long unzip phase, preserving
// the paper's grace-period choreography; the fast paths stand down
// to the striped route during those windows. Readers never take any
// lock. Only resizes wait for readers: the paper's delete is unlink,
// wait, free, but here the collector is the free and does the waiting,
// so a write that unlinks a node marks it dead, leaves its next
// pointer alone and queues nothing on the RCU domain (update.go).
// (The paper's evaluation serializes all writers on one mutex;
// construct with WithStripes(1) to reproduce that baseline, or
// WithCASInsert(false) to pin writes to the striped path.)
package core

import (
	"sync"
	"sync/atomic"

	"rphash/internal/hashfn"
	"rphash/internal/obs"
	"rphash/internal/rcu"
)

// node is a chain element. hash and key are immutable after
// publication; val is swapped atomically by Set/Replace so readers
// always observe a complete value.
//
// casState is the lock-free write path's per-node state machine
// (tryInsertCAS in update.go): casCommitted for every node published
// under a stripe, casSpeculative while a fast-path insert is published
// but not yet epoch-validated, casConsumed once a stripe-holding
// writer unlinks the node from the live structure (delete, or move of
// its key). The consumed mark is set unconditionally at every unlink:
// for a still-speculative node it tells the fast-path owner its insert
// took effect before being removed (recovery must not re-insert), and
// for any node it is the dead mark the upsert in-place replace
// revalidates against (casHintValid in update.go).
type node[K comparable, V any] struct {
	next     atomic.Pointer[node[K, V]]
	val      atomic.Pointer[V]
	casState atomic.Uint32
	hash     uint64
	key      K
}

// casState values. The zero value is committed so the striped write
// path never touches the field when publishing.
const (
	casCommitted uint32 = iota
	casSpeculative
	casConsumed
)

// buckets is one immutable-size bucket array. The table swaps whole
// arrays on resize; readers capture one array pointer per operation
// and use its mask consistently throughout the traversal.
type buckets[K comparable, V any] struct {
	mask uint64 // len(slot)-1
	slot []atomic.Pointer[node[K, V]]
}

func newBuckets[K comparable, V any](n uint64) *buckets[K, V] {
	return &buckets[K, V]{
		mask: n - 1,
		slot: make([]atomic.Pointer[node[K, V]], n),
	}
}

func (b *buckets[K, V]) size() uint64 { return b.mask + 1 }

// Table is a resizable relativistic hash table. Create with New; the
// zero value is not usable.
type Table[K comparable, V any] struct {
	// eng is the bucket representation behind the engine seam
	// (engine.go): the relativistic chain engine by default, or the
	// flat cell-group engine via WithEngine. Set once at construction.
	eng engine[K, V]

	// ht is the CHAIN engine's bucket array; it stays nil under other
	// engines (their storage hangs off the engine value), so any
	// chain-only code path reached on a non-chain table fails loudly.
	ht   atomic.Pointer[buckets[K, V]]
	dom  *rcu.Domain
	hash func(K) uint64

	// stripes is the per-bucket writer-lock array (see stripe.go).
	// Point mutations hold the one stripe covering their key's
	// chain; resizes coordinate through all of them.
	stripes stripeSet

	// resizeMu serializes resize operations (explicit Resize,
	// ExpandOnce/ShrinkOnce, and the auto-resize goroutines) with
	// each other. Writers never take it; resize phases synchronize
	// with writers through the stripes.
	resizeMu sync.Mutex

	// resizeEpoch is a seqlock over every all-stripes critical
	// section: shrink publication and both of an expansion's
	// all-stripes sections (array publish and final mask raise)
	// increment it to odd on entry and back to even on exit. The
	// CAS-insert fast path (tryInsertCAS) reads it before publishing
	// and re-validates it after: an unchanged even value proves no
	// resize captured the bucket array or moved the stripe mask across
	// the publication window, so the lock-free insert could not have
	// been missed by a capture walk.
	resizeEpoch atomic.Uint64

	// noCASInsert disables the CAS-insert fast path (WithCASInsert);
	// pure inserts then always take the striped slow path. Exists for
	// the A7 ablation baseline.
	noCASInsert bool

	// unzipParent is nonzero during an expansion's unzip window and
	// holds the PARENT (pre-doubling) bucket count. While set,
	// chains may be zipped — a node can be reachable from both
	// child buckets of its parent — so unlinks must also patch the
	// sibling chain (see unlinkLocked). Mutated only with every
	// stripe held; read by writers under their stripe.
	unzipParent atomic.Uint64

	// unzipBacklog is the number of parent chains (chain engine) or
	// units (flat engine) the in-flight resize still has to migrate.
	unzipBacklog atomic.Int64

	// wc is the one cache line of counters a point write adds to (see
	// writeCounters). Set once at construction.
	wc *writeCounters

	// batchPool recycles the stripe-sort workspaces of the batched
	// write paths (batch.go).
	batchPool sync.Pool

	ownDom bool
	policy Policy
	grow   resizeTrigger
	shrink resizeTrigger

	// unzipPerCutGrace disables the paper's batching of unzip cuts:
	// instead of one grace period per pass (covering one cut in every
	// parent chain), a grace period follows every individual cut.
	// Exists for the ablation benchmarks; always false in normal use.
	unzipPerCutGrace bool

	stats tableStats

	// obsv is the table's observability hub (WithObserver); nil means
	// every instrumentation point reduces to a pointer compare.
	// obsShard tags this table's events and histogram records with its
	// shard index (WithShardID; 0 for unsharded tables).
	obsv     *obs.Observer
	obsShard int

	// migrateStartNS is the wall-clock start (UnixNano) of the
	// in-flight bucket migration, 0 when idle. Stamped by the resize
	// steps under resizeMu; read lock-free by CounterStats to derive
	// the migration's units/sec rate.
	migrateStartNS atomic.Int64

	// testHookAfterUnzipPass, when set (tests only), runs after each
	// unzip pass's grace period, with resizeMu held but no stripes,
	// so tests can assert the mid-resize reachability invariant in
	// exactly the states concurrent readers and writers observe.
	testHookAfterUnzipPass func(pass int)

	// testHookBeforePublish, when set (tests only), runs in every
	// striped chain insert after its absence walk and before its
	// publish, with the stripe held.
	testHookBeforePublish func()
}

// Policy controls automatic resizing. A zero MaxLoad disables
// auto-expansion; a zero MinLoad disables auto-shrinking.
type Policy struct {
	// MaxLoad is the elements-per-bucket ratio above which the table
	// schedules a background expansion.
	MaxLoad float64
	// MinLoad is the ratio below which the table schedules a
	// background shrink (never below MinBuckets).
	MinLoad float64
	// MinBuckets is the floor for shrinking and the default initial
	// size. Rounded up to a power of two.
	MinBuckets uint64
}

type resizeTrigger struct {
	pending atomic.Bool
}

type config struct {
	dom         *rcu.Domain
	initial     uint64
	stripes     uint64
	policy      Policy
	perCutGrace bool
	obsv        *obs.Observer
	shardID     int
	noCASInsert bool
	engine      string
}

// Option configures a Table at construction.
type Option func(*config)

// WithDomain shares an existing RCU domain instead of creating one.
// Tables sharing a domain share grace periods; Close will not close a
// shared domain.
func WithDomain(d *rcu.Domain) Option { return func(c *config) { c.dom = d } }

// WithInitialBuckets sets the initial bucket count (rounded up to a
// power of two, minimum 1).
func WithInitialBuckets(n uint64) Option { return func(c *config) { c.initial = n } }

// WithPolicy installs an automatic resize policy.
func WithPolicy(p Policy) Option { return func(c *config) { c.policy = p } }

// WithStripes sets the physical writer-stripe count (rounded to a
// power of two, clamped to [1, 256]). The default is a few stripes
// per core. WithStripes(1) reproduces the paper's single writer
// mutex — every mutation serializes — which is the ablation baseline
// the striped scheme is measured against. The effective stripe count
// is additionally capped by the bucket count at any moment, so tiny
// tables degrade gracefully toward coarser locking.
func WithStripes(n int) Option {
	return func(c *config) { c.stripes = clampStripes(n) }
}

// WithObserver wires the table into an observability hub (see
// internal/obs): writer stripe-acquire waits feed o.StripeWait
// (contended acquisitions only), resize lifecycle events feed
// o.Events, and the table's RCU domain reports grace-period wait
// latency into o.GraceWait. nil is the default: all instrumentation
// points compile down to one pointer compare.
func WithObserver(o *obs.Observer) Option { return func(c *config) { c.obsv = o } }

// WithShardID tags the table's observer records with a shard index,
// so a sharded front end (internal/shard) can tell which shard's
// resize produced an event. Meaningless without
// WithObserver.
func WithShardID(n int) Option { return func(c *config) { c.shardID = n } }

// WithCASInsert enables or disables the lock-free write fast path
// (default on): a pure insert whose key is provably absent publishes
// by CAS on the bucket head and epoch-validates instead of locking
// its stripe, and upserts on existing keys locate their node by an
// unlocked hint walk revalidated under the stripe (casHintValid).
// Disabling it pins every write to the striped slow path — the A7
// ablation's "locked" baseline. Lookups and value-level
// CompareAndSwapValue are unaffected either way.
func WithCASInsert(enabled bool) Option {
	return func(c *config) { c.noCASInsert = !enabled }
}

// WithUnzipGracePerCut disables unzip-cut batching (ablation only):
// every pointer cut gets its own grace period instead of sharing one
// per pass. Resizes become dramatically slower; lookups are
// unaffected. See DESIGN.md §5.3 and the A2 ablation.
func WithUnzipGracePerCut() Option { return func(c *config) { c.perCutGrace = true } }

// DefaultPolicy is a sensible general-purpose auto-resize policy:
// expand beyond 2 elements/bucket, shrink below 0.25, floor of 64
// buckets.
func DefaultPolicy() Policy { return Policy{MaxLoad: 2, MinLoad: 0.25, MinBuckets: 64} }

// New creates a table using hash to map keys to 64-bit hashes. The
// hash must be deterministic for the lifetime of the table.
func New[K comparable, V any](hash func(K) uint64, opts ...Option) *Table[K, V] {
	cfg := config{initial: 64}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.policy.MinBuckets == 0 {
		cfg.policy.MinBuckets = 1
	}
	cfg.policy.MinBuckets = hashfn.NextPowerOfTwo(cfg.policy.MinBuckets)
	if cfg.initial < cfg.policy.MinBuckets {
		cfg.initial = cfg.policy.MinBuckets
	}
	cfg.initial = hashfn.NextPowerOfTwo(cfg.initial)

	if cfg.stripes == 0 {
		cfg.stripes = defaultStripeCount()
	}

	t := &Table[K, V]{hash: hash, policy: cfg.policy, unzipPerCutGrace: cfg.perCutGrace, wc: new(writeCounters)}
	t.noCASInsert = cfg.noCASInsert
	t.obsv = cfg.obsv
	t.obsShard = cfg.shardID
	if cfg.dom != nil {
		t.dom = cfg.dom
	} else {
		t.dom = rcu.NewDomain()
		t.ownDom = true
	}
	if cfg.obsv != nil {
		// Idempotent across shards sharing one domain: every table of
		// a sharded map installs the same histogram pointer.
		t.dom.ObserveGraceWaits(&cfg.obsv.GraceWait)
	}
	t.eng = newEngine(t, &cfg)
	t.stripes.init(cfg.stripes, cfg.initial)
	return t
}

// NewUint64 creates a table keyed by uint64 using the repository's
// standard integer mix.
func NewUint64[V any](opts ...Option) *Table[uint64, V] {
	return New[uint64, V](func(k uint64) uint64 { return hashfn.Uint64(k, 0) }, opts...)
}

// NewString creates a table keyed by string using seeded FNV-1a with
// an avalanche finalizer.
func NewString[V any](opts ...Option) *Table[string, V] {
	return New[string, V](func(k string) uint64 { return hashfn.String(k, 0) }, opts...)
}

// Domain exposes the table's RCU domain, e.g. for callers that want
// to run multi-lookup read sections or share the domain across
// structures.
func (t *Table[K, V]) Domain() *rcu.Domain { return t.dom }

// Len returns the number of elements (exact with respect to completed
// updates).
func (t *Table[K, V]) Len() int { return int(t.wc.count.Load()) }

// Buckets returns the current bucket count. It may change immediately
// afterwards if a resize is in flight.
func (t *Table[K, V]) Buckets() int { return int(t.eng.bucketCount()) }

// Close releases the domain if the table created it. The table must
// not be used afterwards.
func (t *Table[K, V]) Close() {
	if t.ownDom {
		t.dom.Close()
	}
}

// obsEvent records a lifecycle event when an observer is installed.
// Nil-safe and non-blocking: safe under any stripe or resizeMu.
func (t *Table[K, V]) obsEvent(typ obs.EventType, a, b, c int64) {
	if o := t.obsv; o != nil {
		o.Events.Record(typ, t.obsShard, a, b, c)
	}
}

// stripeWaitHist returns the stripe-acquire wait histogram, or nil
// when observability is off (the common case — one pointer compare).
func (t *Table[K, V]) stripeWaitHist() *obs.Histogram {
	if o := t.obsv; o != nil {
		return &o.StripeWait
	}
	return nil
}

// bucketFor returns the chain head slot for a hash in array b.
func (b *buckets[K, V]) bucketFor(h uint64) *atomic.Pointer[node[K, V]] {
	return &b.slot[h&b.mask]
}
