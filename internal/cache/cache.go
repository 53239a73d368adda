// Package cache is a generic caching layer on the sharded
// relativistic hash map: TTL expiry driven by a coarse clock,
// cost-bounded capacity with per-shard sampled-LRU eviction, and a
// built-in singleflight loader for thundering-herd protection. It is
// the reusable form of the expiry/eviction/accounting machinery the
// paper's memcached patch buries inside its storage engine.
//
// The read path inherits the map's relativistic contract: a cache hit
// is one lock-free chain walk plus two atomic loads (coarse clock,
// expiry check) and one atomic store (recency stamp) — no locks, no
// read-modify-writes, no allocation. Expired entries read as misses
// immediately (lazy expiry); their memory is reclaimed by writers, by
// the background sweeper, or by eviction sampling, whichever gets
// there first.
//
// Capacity is a cost budget (bytes, entries, or any caller-defined
// unit; every Set carries a cost). When the budget is exceeded the
// writer that crossed it evicts: it samples entries from the shard it
// wrote to — rotating onward while over budget — and removes the
// least-recently-used of the sample, preferring already-expired
// entries. This is memcached's later sampled-LRU ("lru_crawler")
// shape rather than a strict list, which cannot be maintained without
// serializing GETs. Readers are never blocked by eviction.
//
// Maintenance work is proportional to the buckets it touches, never
// to the table — the per-bucket on-demand maintenance of Malakhov's
// concurrent rehashing. Both passes are built on one primitive,
// core.Table.ScanFrom: a bounded reader section that walks buckets
// from a cursor and returns where to resume. Eviction starts it at
// random buckets and reads the sample (evict.go: O(sample), no Len,
// no walk to a random offset). The sweeper keeps one cursor per shard
// and each tick examines at most sweepBatch entries of one shard
// (sweep.go), so a full pass over the cache takes entries/sweepBatch
// ticks — 49 per 100 000 entries: 5 s at a 100 ms interval, 25 s at
// the 500 ms default; ten times that per million. Purge and
// SweepExpired run as chunked traversals that delete as they go.
package cache

import (
	"sync"
	"sync/atomic"
	"time"

	"rphash/internal/clock"
	"rphash/internal/core"
	"rphash/internal/hashfn"
	"rphash/internal/obs"
	"rphash/internal/rcu"
	"rphash/internal/shard"
	"rphash/internal/stats"
)

// entry is one cache record. Everything but the recency stamp is
// immutable after publication, which is what keeps lock-free readers
// safe: a Set publishes a fresh entry rather than mutating this one.
type entry[V any] struct {
	val      V
	expireAt int64 // unix nanos; 0 = never
	cost     int64
	lastUsed atomic.Int64 // coarse unix nanos; plain atomic store on hit
}

// Cache is a TTL + eviction + stampede-protected cache over
// shard.Map. Create with New; the zero value is not usable. All
// methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	m    *shard.Map[K, *entry[V]]
	hash func(K) uint64

	clk    *clock.Clock
	ownClk bool

	defaultTTL time.Duration
	maxCost    int64
	sample     int

	cost atomic.Int64 // sum of live entry costs (exact)

	hits      stats.Striped
	misses    stats.Striped
	getterSeq atomic.Uint64

	loads       atomic.Uint64
	loadErrors  atomic.Uint64
	evictions   atomic.Uint64
	expirations atomic.Uint64

	// Entries examined by eviction sampling and by the background
	// sweeper: maintenance work, to set against what it reclaimed.
	evictScanned atomic.Uint64
	sweepScanned atomic.Uint64

	evictMu  sync.Mutex
	evictSeq atomic.Uint64 // scrambled into the sampling start offset

	// obsv, when set (WithObserver), receives GetOrLoad loader
	// latency; the underlying map and domain are wired through
	// shard.WithObserver. The hit path is never instrumented.
	obsv *obs.Observer

	flights [flightStripes]flightShard[K, V]

	// multiPool recycles GetMulti/GetOrLoadMulti workspaces (multi.go).
	multiPool sync.Pool

	sweepStop chan struct{}
	sweepWG   sync.WaitGroup

	// afterPurgeDelete, when set (tests only), runs in Purge after each
	// removal, with the removed key, outside any reader section.
	afterPurgeDelete func(K)
}

// DefaultSweepInterval is the background sweeper cadence when the
// caller does not choose one.
const DefaultSweepInterval = 500 * time.Millisecond

// defaultSample is how many candidates an eviction pass examines per
// shard when choosing a victim.
const defaultSample = 16

type config struct {
	ttl       time.Duration
	maxCost   int64
	shards    int
	initial   uint64
	engine    string
	policy    core.Policy
	hasPolicy bool
	sweep     time.Duration
	clk       *clock.Clock
	sample    int
	obsv      *obs.Observer
}

// Option configures a Cache at construction.
type Option func(*config)

// WithTTL sets the default time-to-live applied by Set and GetOrLoad
// (0 = entries never expire). SetTTL/SetWith override it per entry.
func WithTTL(d time.Duration) Option { return func(c *config) { c.ttl = d } }

// WithMaxCost bounds the cache's total cost (the sum of per-entry
// costs; Set's default cost is 1, so with defaults this is a max
// entry count). <= 0 disables eviction.
func WithMaxCost(n int64) Option { return func(c *config) { c.maxCost = n } }

// WithShards sets the underlying map's shard count (rounded up to a
// power of two; default NextPowerOfTwo(GOMAXPROCS)).
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithInitialBuckets sets the total initial bucket count across
// shards.
func WithInitialBuckets(n uint64) Option { return func(c *config) { c.initial = n } }

// WithEngine selects the underlying tables' bucket representation
// (see core.WithEngine): core.EngineChain (the default) or
// core.EngineFlat.
func WithEngine(name string) Option { return func(c *config) { c.engine = name } }

// WithPolicy overrides the auto-resize policy (the default expands
// beyond 2 elements/bucket and shrinks below 0.25). Pass the zero
// Policy to pin the bucket count.
func WithPolicy(p core.Policy) Option {
	return func(c *config) { c.policy, c.hasPolicy = p, true }
}

// WithSweepInterval sets the background expiry sweeper cadence
// (default DefaultSweepInterval). <= 0 disables the sweeper; expired
// entries are then reclaimed only by SweepExpired calls, eviction
// sampling, and overwrites.
func WithSweepInterval(d time.Duration) Option {
	return func(c *config) { c.sweep = d }
}

// WithClock injects a coarse clock (tests use clock.NewManual; fleets
// can share one ticker). The cache will not stop an injected clock.
func WithClock(clk *clock.Clock) Option { return func(c *config) { c.clk = clk } }

// WithSampleSize sets how many candidates an eviction pass examines
// per shard (default 16; larger samples approximate LRU better at
// higher eviction cost).
func WithSampleSize(n int) Option { return func(c *config) { c.sample = n } }

// WithObserver wires the cache into an observability hub (see
// internal/obs): singleflight loader latency feeds o.CacheLoad, and
// the underlying sharded map — stripe waits, resize lifecycle, RCU
// grace waits — is wired through shard.WithObserver. The lock-free
// hit path is deliberately not instrumented: its cost budget is zero.
func WithObserver(o *obs.Observer) Option { return func(c *config) { c.obsv = o } }

// New creates a cache keyed by K using the supplied hash function
// (same contract as shard.New: deterministic, well mixed high and low
// bits).
func New[K comparable, V any](hash func(K) uint64, opts ...Option) *Cache[K, V] {
	cfg := config{sweep: DefaultSweepInterval, sample: defaultSample}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.sample <= 0 {
		cfg.sample = defaultSample
	}

	var mopts []shard.Option
	if cfg.shards > 0 {
		mopts = append(mopts, shard.WithShards(cfg.shards))
	}
	if cfg.initial > 0 {
		mopts = append(mopts, shard.WithInitialBuckets(cfg.initial))
	}
	if cfg.engine != "" {
		mopts = append(mopts, shard.WithEngine(cfg.engine))
	}
	if !cfg.hasPolicy {
		cfg.policy = core.Policy{MaxLoad: 2, MinLoad: 0.25, MinBuckets: max(cfg.initial, 64)}
	}
	if cfg.policy != (core.Policy{}) {
		mopts = append(mopts, shard.WithPolicy(cfg.policy))
	}
	if cfg.obsv != nil {
		mopts = append(mopts, shard.WithObserver(cfg.obsv))
	}

	c := &Cache[K, V]{
		m:          shard.New[K, *entry[V]](hash, mopts...),
		hash:       hash,
		defaultTTL: cfg.ttl,
		maxCost:    cfg.maxCost,
		sample:     cfg.sample,
		obsv:       cfg.obsv,
	}
	if cfg.clk != nil {
		c.clk = cfg.clk
	} else {
		c.clk = clock.New(clock.DefaultGranularity)
		c.ownClk = true
	}
	if cfg.sweep > 0 {
		c.sweepStop = make(chan struct{})
		c.sweepWG.Add(1)
		go c.runSweeper(cfg.sweep)
	}
	return c
}

// NewUint64 creates a cache keyed by uint64 with the standard
// splitmix64 finalizer.
func NewUint64[V any](opts ...Option) *Cache[uint64, V] {
	return New[uint64, V](func(k uint64) uint64 { return hashfn.Uint64(k, 0) }, opts...)
}

// NewString creates a cache keyed by string with seeded FNV-1a plus
// an avalanche finalizer.
func NewString[V any](opts ...Option) *Cache[string, V] {
	return New[string, V](func(k string) uint64 { return hashfn.String(k, 0) }, opts...)
}

// expired reports whether e is past its expiry on the coarse clock.
func (c *Cache[K, V]) expired(e *entry[V]) bool {
	return e.expireAt != 0 && e.expireAt <= c.clk.Nanos()
}

// Get returns the live value for k. Hits are lock-free and
// allocation-free; expired entries read as misses (lazy expiry).
func (c *Cache[K, V]) Get(k K) (V, bool) {
	return c.get(c.hash(k), k, 0)
}

func (c *Cache[K, V]) get(h uint64, k K, stripe int) (V, bool) {
	e, ok := c.m.GetHashed(h, k)
	if ok && !c.expired(e) {
		e.lastUsed.Store(c.clk.Nanos())
		c.hits.Add(stripe)
		return e.val, true
	}
	c.misses.Add(stripe)
	var zero V
	return zero, false
}

// peek is get without counters or a recency bump, for internal
// presence checks that must not skew hit/miss stats.
func (c *Cache[K, V]) peek(h uint64, k K) (V, bool) {
	e, ok := c.m.GetHashed(h, k)
	if ok && !c.expired(e) {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Peek returns the live value for k without counting a hit or a miss
// and without bumping recency — monitoring and conditional logic use
// it so they don't distort eviction order or stats.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	return c.peek(c.hash(k), k)
}

// Contains reports whether k is live, without touching stats.
func (c *Cache[K, V]) Contains(k K) bool {
	_, ok := c.Peek(k)
	return ok
}

// NewGetter returns a per-goroutine lock-free Get bound to a
// registered read handle — the hot path long-lived reader goroutines
// use — plus a release function. The getter is not safe for
// concurrent use; create one per goroutine.
func (c *Cache[K, V]) NewGetter() (get func(K) (V, bool), release func()) {
	h := c.m.NewReadHandle()
	stripe := int(c.getterSeq.Add(1))
	return func(k K) (V, bool) {
		e, ok := h.Get(k)
		if ok && !c.expired(e) {
			e.lastUsed.Store(c.clk.Nanos())
			c.hits.Add(stripe)
			return e.val, true
		}
		c.misses.Add(stripe)
		var zero V
		return zero, false
	}, h.Close
}

// Set stores v under k with the cache's default TTL and cost 1.
func (c *Cache[K, V]) Set(k K, v V) { c.SetWith(k, v, c.defaultTTL, 1) }

// SetTTL stores v under k with an explicit time-to-live (<= 0 means
// never expires) and cost 1.
func (c *Cache[K, V]) SetTTL(k K, v V, ttl time.Duration) { c.SetWith(k, v, ttl, 1) }

// SetWith stores v under k with an explicit TTL (<= 0 = never) and
// cost. Cost is the entry's weight against WithMaxCost — bytes for a
// byte-budgeted cache, 1 for an entry-count cache.
func (c *Cache[K, V]) SetWith(k K, v V, ttl time.Duration, cost int64) {
	var at int64
	if ttl > 0 {
		at = c.clk.Nanos() + ttl.Nanoseconds()
	}
	c.setAbs(c.hash(k), k, v, at, cost)
}

// SetExpiresAt stores v under k expiring at an absolute time (the
// zero time = never); engines whose protocol carries absolute unix
// expiries (memcached) use this form.
func (c *Cache[K, V]) SetExpiresAt(k K, v V, at time.Time, cost int64) {
	var abs int64
	if !at.IsZero() {
		abs = at.UnixNano()
	}
	c.setAbs(c.hash(k), k, v, abs, cost)
}

// setAbs publishes a fresh entry and settles accounting: the cost
// delta is computed from the exact entry displaced (SwapHashed's
// read-out and replacement are atomic under the key's writer
// stripe — the table's per-bucket lock — which serializes every
// writer on this key), so concurrent writers on one key can never
// double-count. The writer that pushes the budget over then pays for
// eviction.
func (c *Cache[K, V]) setAbs(h uint64, k K, v V, expireAt, cost int64) {
	if cost < 0 {
		cost = 0
	}
	e := &entry[V]{val: v, expireAt: expireAt, cost: cost}
	e.lastUsed.Store(c.clk.Nanos())
	delta := cost
	if old, replaced := c.m.SwapHashed(h, k, e); replaced {
		delta -= old.cost
	}
	if c.cost.Add(delta) > c.maxCost && c.maxCost > 0 {
		c.evict(c.m.ShardIndex(h))
	}
}

// Update runs a read-modify-write for k under its writer stripe: fn
// receives the current value (zero if absent or expired) and whether
// a live entry exists, and returns the value to store, its absolute
// expiry (the zero time = never), its cost, and whether to store at
// all. The whole sequence — examine, decide, publish — is atomic with
// respect to every other writer on the key, which is what the
// memcached-style conditional commands (add, cas, incr) need without
// a store-wide mutex. fn runs with the stripe held: keep it fast,
// never block, never touch the cache from inside it. fn may run more
// than once, and only the last run's result is stored (see
// core.Table.Update).
//
// Accounting follows setAbs exactly: the cost delta is settled once
// from the exact entry displaced, and the writer that pushes the
// budget over pays for eviction after the stripe is released.
func (c *Cache[K, V]) Update(k K, fn func(cur V, live bool) (V, time.Time, int64, bool)) bool {
	h := c.hash(k)
	var newCost int64
	prev, hadPrev, stored := c.m.UpdateHashed(h, k, func(cur *entry[V], present bool) (*entry[V], bool) {
		var curV V
		live := present && !c.expired(cur)
		if live {
			curV = cur.val
		}
		v, at, cost, store := fn(curV, live)
		if !store {
			return nil, false
		}
		if cost < 0 {
			cost = 0
		}
		var abs int64
		if !at.IsZero() {
			abs = at.UnixNano()
		}
		e := &entry[V]{val: v, expireAt: abs, cost: cost}
		e.lastUsed.Store(c.clk.Nanos())
		newCost = cost
		return e, true
	})
	if !stored {
		return false
	}
	delta := newCost
	if hadPrev {
		delta -= prev.cost
	}
	if c.cost.Add(delta) > c.maxCost && c.maxCost > 0 {
		c.evict(c.m.ShardIndex(h))
	}
	return true
}

// Delete removes k, reporting whether an entry was removed (expired
// entries count: they were still occupying memory). Removing an
// expired entry is recorded as an expiration.
func (c *Cache[K, V]) Delete(k K) bool {
	e, ok := c.m.CompareAndDelete(k, nil)
	if !ok {
		return false
	}
	c.cost.Add(-e.cost)
	if c.expired(e) {
		c.expirations.Add(1)
	}
	return true
}

// Range calls fn for every live entry until fn returns false. Expired
// entries are skipped. Per-shard semantics match Table.Range; there
// is no cross-shard snapshot.
func (c *Cache[K, V]) Range(fn func(K, V) bool) {
	c.m.Range(func(k K, e *entry[V]) bool {
		if c.expired(e) {
			return true
		}
		return fn(k, e.val)
	})
}

// Len returns the entry count, including expired entries not yet
// reclaimed.
func (c *Cache[K, V]) Len() int { return c.m.Len() }

// Cost returns the current cost total (including expired entries not
// yet reclaimed).
func (c *Cache[K, V]) Cost() int64 { return c.cost.Load() }

// MaxCost returns the configured budget (<= 0 = unbounded).
func (c *Cache[K, V]) MaxCost() int64 { return c.maxCost }

// Buckets returns the total bucket count across shards.
func (c *Cache[K, V]) Buckets() int { return c.m.Buckets() }

// NumShards returns the underlying map's shard count.
func (c *Cache[K, V]) NumShards() int { return c.m.NumShards() }

// Domain exposes the underlying map's shared RCU domain (metrics
// export reads its grace-period counters; embedders can run
// multi-lookup read sections against it).
func (c *Cache[K, V]) Domain() *rcu.Domain { return c.m.Domain() }

// MapCounters returns the underlying sharded map's aggregated
// counter snapshot without any bucket walk (see
// shard.Map.CounterStats): scrape-endpoint safe at any table size.
func (c *Cache[K, V]) MapCounters() core.Stats { return c.m.CounterStats() }

// Resize retargets the total bucket count, divided across shards.
func (c *Cache[K, V]) Resize(total uint64) { c.m.Resize(total) }

// Close stops the sweeper (and the clock, if the cache created it)
// and releases the underlying map. The cache must not be used
// afterwards.
func (c *Cache[K, V]) Close() {
	if c.sweepStop != nil {
		close(c.sweepStop)
		c.sweepWG.Wait()
		c.sweepStop = nil
	}
	if c.ownClk {
		c.clk.Stop()
	}
	c.m.Close()
}
