package rphash

import (
	"net/http"
	"time"

	"rphash/internal/cache"
	"rphash/internal/core"
	"rphash/internal/hashfn"
	"rphash/internal/obs"
	"rphash/internal/rcu"
	"rphash/internal/shard"
)

// Table is a resizable relativistic hash table. See the package
// documentation for the concurrency contract.
type Table[K comparable, V any] = core.Table[K, V]

// ReadHandle is a per-goroutine lookup handle; it amortizes reader
// registration for hot loops. Not safe for concurrent use.
type ReadHandle[K comparable, V any] = core.ReadHandle[K, V]

// Stats is a snapshot of table metrics, including resize internals
// (unzip passes and pointer cuts).
type Stats = core.Stats

// Policy controls automatic load-factor-driven resizing.
type Policy = core.Policy

// Option configures a table at construction time.
type Option = core.Option

// Domain is a relativistic-programming (RCU) domain: a registry of
// delimited readers and a grace-period clock. Tables own a private
// domain unless one is shared via WithDomain.
type Domain = rcu.Domain

// Reader is a registered delimited reader for callers that compose
// their own multi-lookup read sections via Domain.
type Reader = rcu.Reader

// New creates a table keyed by K using the supplied hash function.
// The hash must be deterministic for the table's lifetime and should
// mix its low bits well (bucket selection masks the hash with a power
// of two); see internal/hashfn for suitable mixers.
func New[K comparable, V any](hash func(K) uint64, opts ...Option) *Table[K, V] {
	return core.New[K, V](hash, opts...)
}

// NewUint64 creates a table keyed by uint64 with the standard
// splitmix64 finalizer.
func NewUint64[V any](opts ...Option) *Table[uint64, V] {
	return core.NewUint64[V](opts...)
}

// NewString creates a table keyed by string with seeded FNV-1a plus
// an avalanche finalizer.
func NewString[V any](opts ...Option) *Table[string, V] {
	return core.NewString[V](opts...)
}

// NewDomain creates a standalone RCU domain for sharing across
// tables (see WithDomain) or for composing custom relativistic data
// structures. Close it when done.
func NewDomain() *Domain { return rcu.NewDomain() }

// WithDomain shares an existing domain instead of creating a private
// one. Tables sharing a domain share grace periods.
func WithDomain(d *Domain) Option { return core.WithDomain(d) }

// WithInitialBuckets sets the initial bucket count (rounded up to a
// power of two).
func WithInitialBuckets(n uint64) Option { return core.WithInitialBuckets(n) }

// WithPolicy installs an automatic resize policy.
func WithPolicy(p Policy) Option { return core.WithPolicy(p) }

// Engine names accepted by WithEngine, WithMapEngine, and
// WithCacheEngine.
const (
	EngineChain = core.EngineChain
	EngineFlat  = core.EngineFlat
)

// WithEngine selects the table's bucket representation: EngineChain
// (the default) — the paper's relativistic chain layout with
// unzip/zip resizing and the lock-free CAS write fast path — or
// EngineFlat, cache-line-contiguous eight-cell bucket groups with a
// packed hash-tag word, chain spill on overflow, and relativistic
// copy-based migration. The public API and the synchronization-free
// read side are identical either way; flat trades the chain engine's
// lock-free write fast path for contiguous lookups.
func WithEngine(name string) Option { return core.WithEngine(name) }

// WithStripes sets a table's physical writer-stripe count (rounded
// to a power of two, clamped to [1, 256]; default a few per core).
// WithStripes(1) reproduces the paper's single writer mutex — the
// ablation baseline for the striped scheme.
func WithStripes(n int) Option { return core.WithStripes(n) }

// WithCASInsert enables or disables the lock-free write fast path
// (default on): pure inserts publish by CAS on the bucket head with
// epoch validation, and upserts on existing keys revalidate an
// unlocked hint under the stripe, instead of taking the striped slow
// path up front. Disabling it pins every write to the striped path —
// the ablation A7 "locked" baseline. Lookups and value-level
// CompareAndSwapValue are unaffected either way.
func WithCASInsert(enabled bool) Option { return core.WithCASInsert(enabled) }

// DefaultPolicy expands beyond 2 elements/bucket and shrinks below
// 0.25, with a 64-bucket floor.
func DefaultPolicy() Policy { return core.DefaultPolicy() }

// Map is a sharded relativistic hash map: keys partition across a
// power-of-two array of Tables, while lookups keep the single-table
// read side — wait-free, lock-free, retry-free — through one shared
// Domain. Since Table writers stripe per bucket, a single Table
// already scales with concurrent writers; choose Map when resize
// isolation matters (each shard resizes independently, stalling only
// its own keys) or under extreme writer counts, and Table when you
// need Resize/Move atomicity across the whole structure.
//
// Callers holding many keys at once should use the batch operations
// (GetBatch/SetBatch/DeleteBatch): keys are hashed once and grouped
// by shard, so a B-key batch over S shards enters at most min(B, S)
// reader sections and mutex holds instead of one per key. See the
// package documentation's "Batched operations" section.
type Map[K comparable, V any] = shard.Map[K, V]

// MapReadHandle is a per-goroutine lookup handle spanning every shard
// of a Map. Not safe for concurrent use.
type MapReadHandle[K comparable, V any] = shard.ReadHandle[K, V]

// MapOption configures a Map at construction time.
type MapOption = shard.Option

// NewMap creates a sharded map keyed by K using the supplied hash
// function. The hash must be deterministic for the map's lifetime and
// should mix both its high bits (shard routing) and low bits (bucket
// selection) well; see internal/hashfn for suitable mixers.
func NewMap[K comparable, V any](hash func(K) uint64, opts ...MapOption) *Map[K, V] {
	return shard.New[K, V](hash, opts...)
}

// NewMapUint64 creates a sharded map keyed by uint64 with the
// standard splitmix64 finalizer.
func NewMapUint64[V any](opts ...MapOption) *Map[uint64, V] {
	return shard.NewUint64[V](opts...)
}

// NewMapString creates a sharded map keyed by string with seeded
// FNV-1a plus an avalanche finalizer.
func NewMapString[V any](opts ...MapOption) *Map[string, V] {
	return shard.NewString[V](opts...)
}

// WithShards sets a Map's shard count (rounded up to a power of two).
// The default is one shard per ~4 cores, capped at 16 (writer
// parallelism comes from each table's stripes; shards add resize
// isolation).
func WithShards(n int) MapOption { return shard.WithShards(n) }

// WithMapTableStripes sets each shard table's writer-stripe count
// (see WithStripes).
func WithMapTableStripes(n int) MapOption { return shard.WithTableStripes(n) }

// WithMapDomain shares an existing domain across a Map's shards (and
// any other tables registered on it). Close will not close a shared
// domain.
func WithMapDomain(d *Domain) MapOption { return shard.WithDomain(d) }

// WithMapInitialBuckets sets a Map's total initial bucket count,
// divided across shards.
func WithMapInitialBuckets(total uint64) MapOption { return shard.WithInitialBuckets(total) }

// WithMapEngine selects every shard table's bucket representation
// (EngineChain or EngineFlat; see WithEngine).
func WithMapEngine(name string) MapOption { return shard.WithEngine(name) }

// WithMapPolicy installs an automatic resize policy applied per
// shard (MinBuckets is interpreted map-wide and divided across
// shards).
func WithMapPolicy(p Policy) MapOption { return shard.WithPolicy(p) }

// MapStats is a Map observability snapshot: the map-wide aggregate
// (embedded Stats) plus every shard's own table snapshot, so bucket
// totals, load factors, and resize counts are visible per shard.
// Obtain one via Map.DetailedStats.
type MapStats = shard.MapStats

// Cache is a TTL + eviction + stampede-protected cache built on Map:
// lock-free allocation-free hits, coarse-clock lazy expiry plus an
// incremental background sweeper, cost-bounded capacity with
// per-shard sampled-LRU eviction, and a singleflight GetOrLoad so a
// miss storm on one hot key issues exactly one load. GetMulti and
// GetOrLoadMulti are the batched forms: shared reader sections per
// shard group, one coarse-clock read and counter update per batch,
// and one loader call for a whole miss set. See the package
// documentation for choosing Table vs Map vs Cache.
type Cache[K comparable, V any] = cache.Cache[K, V]

// CacheOption configures a Cache at construction time.
type CacheOption = cache.Option

// CacheStats is a snapshot of cache metrics (hits, misses, loads,
// evictions, expirations, cost) including the underlying MapStats.
type CacheStats = cache.Stats

// NewCache creates a cache keyed by K using the supplied hash
// function (same contract as NewMap: deterministic, well-mixed high
// and low bits). Close it when done: the cache owns a background
// sweeper and a coarse-clock ticker.
func NewCache[K comparable, V any](hash func(K) uint64, opts ...CacheOption) *Cache[K, V] {
	return cache.New[K, V](hash, opts...)
}

// NewCacheUint64 creates a cache keyed by uint64 with the standard
// splitmix64 finalizer.
func NewCacheUint64[V any](opts ...CacheOption) *Cache[uint64, V] {
	return cache.NewUint64[V](opts...)
}

// NewCacheString creates a cache keyed by string with seeded FNV-1a
// plus an avalanche finalizer.
func NewCacheString[V any](opts ...CacheOption) *Cache[string, V] {
	return cache.NewString[V](opts...)
}

// WithCacheTTL sets the default time-to-live applied by Set and
// GetOrLoad (0 = never expire); SetTTL/SetWith override per entry.
func WithCacheTTL(d time.Duration) CacheOption { return cache.WithTTL(d) }

// WithCacheMaxCost bounds the cache's total cost — the sum of
// per-entry costs (Set's default cost is 1, so with defaults this is
// a max entry count; pass byte sizes to SetWith for a byte budget).
// <= 0 disables eviction.
func WithCacheMaxCost(n int64) CacheOption { return cache.WithMaxCost(n) }

// WithCacheShards sets the underlying Map's shard count (rounded up
// to a power of two; default NextPowerOfTwo(GOMAXPROCS)).
func WithCacheShards(n int) CacheOption { return cache.WithShards(n) }

// WithCacheInitialBuckets sets the cache's total initial bucket count
// across shards.
func WithCacheInitialBuckets(n uint64) CacheOption { return cache.WithInitialBuckets(n) }

// WithCacheEngine selects the cache's table bucket representation
// (EngineChain or EngineFlat; see WithEngine).
func WithCacheEngine(name string) CacheOption { return cache.WithEngine(name) }

// WithCachePolicy overrides the cache's auto-resize policy (the
// default expands beyond 2 elements/bucket and shrinks below 0.25).
// Pass the zero Policy to pin the bucket count.
func WithCachePolicy(p Policy) CacheOption { return cache.WithPolicy(p) }

// WithCacheSweepInterval sets the background expiry sweeper cadence
// (<= 0 disables it; expired entries are then reclaimed only by
// SweepExpired calls, eviction sampling, and overwrites).
func WithCacheSweepInterval(d time.Duration) CacheOption { return cache.WithSweepInterval(d) }

// Observer is the observability hub: lock-free latency histograms
// for RCU grace-period waits, contended writer stripe-lock waits, and
// cache loader latency, plus a fixed-size concurrent event ring
// capturing the resize/unzip lifecycle. One Observer can span any
// number of tables, maps, and caches; pass it via
// WithObserver/WithMapObserver/WithCacheObserver. A nil Observer
// disables all instrumentation at the cost of one pointer compare per
// site.
type Observer = obs.Observer

// ObserverSnapshot is a point-in-time copy of every Observer metric.
type ObserverSnapshot = obs.ObserverSnapshot

// HistogramSnapshot is a folded latency histogram with Count, SumNS,
// MaxNS, power-of-two buckets, and P50/P95/P99/Quantile accessors.
type HistogramSnapshot = obs.HistogramSnapshot

// Event is one captured lifecycle event (resize phase, grace wait,
// CAS undo, watchdog trip); its String method renders a human-readable line.
type Event = obs.Event

// Registry collects named metrics behind closures and renders them as
// Prometheus text exposition or expvar-style JSON. The zero value is
// ready to use.
type Registry = obs.Registry

// ObserverOption configures NewObserver.
type ObserverOption = obs.ObserverOption

// FlightRecorder is the sampled per-operation record stream: 1-in-N
// table writes record their op class, path taken (CAS insert, hint
// replace, striped fallback, migration assist, spill), outcome, shard,
// stripe, and latency into striped lock-free rings. Aggregate its
// Snapshot with AggregateOps or serve the rendered summary at
// /debug/ops (Observe).
type FlightRecorder = obs.Recorder

// OpRecord is one sampled operation from the flight recorder;
// OpPathStats is one (class, path) aggregation row.
type (
	OpRecord    = obs.OpRecord
	OpPathStats = obs.OpPathStats
)

// AggregateOps folds flight-recorder records into per-(class, path)
// rows with exact count, outcome tallies, and p50/p99/max latency,
// sorted by descending count.
func AggregateOps(recs []OpRecord) []OpPathStats { return obs.AggregateOps(recs) }

// NewObserver returns an Observer with a default-capacity event ring.
func NewObserver(opts ...ObserverOption) *Observer { return obs.NewObserver(opts...) }

// WithFlightRecorder attaches a flight recorder to the observer,
// sampling one in sampleEvery instrumented table writes (0 = 1024)
// into rings of perStripe slots (0 = default). The unsampled
// majority of writes pay one atomic ticket; reads are never
// instrumented.
func WithFlightRecorder(sampleEvery, perStripe int) ObserverOption {
	return obs.WithFlightRecorder(sampleEvery, perStripe)
}

// Watchdog is the periodic anomaly self-check: each tick it samples
// table health (grace-period progress, stripe contention, resize
// backlog, evictions) and detects grace-period stalls, stripe
// convoys, stuck resizes, and eviction storms. Detections land in the
// observer's event ring and per-class counters; the first trigger per
// class writes a diagnostic bundle. Start one over a Cache with
// Cache.StartWatchdog, or build a custom sampler with obs.NewWatchdog.
type Watchdog = obs.Watchdog

// WatchdogConfig holds the watchdog's clock, cadence, detection
// thresholds, and bundle directory; zero fields take documented
// defaults (Cache.StartWatchdog fills Clock from the cache).
type WatchdogConfig = obs.WatchdogConfig

// WatchdogSample is one health snapshot the watchdog inspects.
type WatchdogSample = obs.WatchdogSample

// Anomaly is one watchdog detection; AnomalyClass names the four
// detector classes.
type (
	Anomaly      = obs.Anomaly
	AnomalyClass = obs.AnomalyClass
)

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Observe mounts the observability export plane onto mux: /metrics
// (Prometheus text over every metric in reg), /debug/vars
// (expvar-style JSON), /debug/events (the observer's event-ring
// timeline), /debug/ops (the flight recorder's sampled path/latency
// summary, when the observer has one), and /debug/pprof. reg and o
// may each be nil to skip their endpoints. Typical wiring:
//
//	o := rphash.NewObserver()
//	c := rphash.NewCacheString[V](rphash.WithCacheObserver(o))
//	reg := rphash.NewRegistry()
//	o.Register(reg)
//	rphash.Observe(http.DefaultServeMux, reg, o)
func Observe(mux *http.ServeMux, reg *Registry, o *Observer) { obs.Mount(mux, reg, o) }

// WithObserver instruments a Table with o: grace-period waits,
// contended stripe-lock waits, and resize lifecycle events all record
// into it. nil (the default) disables instrumentation.
func WithObserver(o *Observer) Option { return core.WithObserver(o) }

// WithMapObserver instruments every shard table of a Map with o (see
// WithObserver); ring events carry the shard index.
func WithMapObserver(o *Observer) MapOption { return shard.WithObserver(o) }

// WithCacheObserver instruments a Cache and its underlying map with
// o; additionally records GetOrLoad leader loader latency. The
// lock-free hit path is deliberately not instrumented.
func WithCacheObserver(o *Observer) CacheOption { return cache.WithObserver(o) }

// HashBytes is the repository's standard byte-slice hash (seeded
// FNV-1a with an avalanche finalizer), exported for callers building
// custom key types.
func HashBytes(b []byte, seed uint64) uint64 { return hashfn.Bytes(b, seed) }

// HashString is the string form of HashBytes.
func HashString(s string, seed uint64) uint64 { return hashfn.String(s, seed) }

// HashUint64 is the repository's standard integer hash.
func HashUint64(x, seed uint64) uint64 { return hashfn.Uint64(x, seed) }
