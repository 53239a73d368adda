// Package bench is the microbenchmark harness that regenerates the
// paper's evaluation figures 1–4 (fixed-size baseline, continuous
// resize, RP resize-vs-fixed, DDDS resize-vs-fixed). It drives any
// hash-table implementation through the Engine interface with
// per-reader key streams and per-reader counters, and renders the
// results as the same series the paper plots.
package bench

import (
	"sync"
	"time"

	"rphash/internal/cache"
	"rphash/internal/core"
	"rphash/internal/ddds"
	"rphash/internal/lockht"
	"rphash/internal/shard"
	"rphash/internal/xu"
)

// Lookup is a per-goroutine lookup function: each reader goroutine
// obtains its own (tables with registered readers need one handle per
// goroutine).
type Lookup func(k uint64) bool

// LookupBatch performs len(ks) lookups, writing per-key hit flags
// into oks (len(oks) == len(ks)). Like Lookup it is per-goroutine.
type LookupBatch func(ks []uint64, oks []bool)

// BatchEngine is the optional extension implemented by engines with a
// genuine batch read path (one reader section per shard group rather
// than one per key). The multi-get workload compares it against a
// per-key loop over the same engine.
type BatchEngine interface {
	// NewLookupBatch returns a per-goroutine batch lookup and a
	// release function (may be nil).
	NewLookupBatch() (LookupBatch, func())
}

// NewPerKeyLookupBatch adapts an engine's per-key lookup into the
// LookupBatch shape — the unamortized baseline the batch paths are
// measured against, and the fallback for engines without a batch
// path.
func NewPerKeyLookupBatch(e Engine) (LookupBatch, func()) {
	lookup, closeFn := e.NewLookup()
	return func(ks []uint64, oks []bool) {
		for i, k := range ks {
			oks[i] = lookup(k)
		}
	}, closeFn
}

// Engine abstracts a table implementation for the harness.
type Engine interface {
	// Name labels the series.
	Name() string
	// NewLookup returns a per-goroutine lookup function and a release
	// function (may be nil).
	NewLookup() (Lookup, func())
	// Set upserts a key (preload and writer churn).
	Set(k uint64, v int)
	// Delete removes a key.
	Delete(k uint64)
	// Resize retargets the bucket count.
	Resize(n uint64)
	// Close releases the engine.
	Close()
}

// ---- RP (the paper's algorithm; internal/core) ----

type rpEngine struct{ t *core.Table[uint64, int] }

// NewRP builds the relativistic-table engine with the given initial
// bucket count.
func NewRP(buckets uint64) Engine {
	return &rpEngine{t: core.NewUint64[int](core.WithInitialBuckets(buckets))}
}

func (e *rpEngine) Name() string { return "RP" }
func (e *rpEngine) NewLookup() (Lookup, func()) {
	h := e.t.NewReadHandle()
	return func(k uint64) bool {
		_, ok := h.Get(k)
		return ok
	}, h.Close
}
func (e *rpEngine) Set(k uint64, v int) { e.t.Set(k, v) }
func (e *rpEngine) Delete(k uint64)     { e.t.Delete(k) }
func (e *rpEngine) Resize(n uint64)     { e.t.Resize(n) }
func (e *rpEngine) Close()              { e.t.Close() }

// ---- RP flat engine (cache-line-contiguous bucket groups) ----

type rpFlatEngine struct{ t *core.Table[uint64, int] }

// NewRPFlat builds the relativistic table on the flat engine
// (core.EngineFlat): eight-cell inline bucket groups with a packed
// hash-tag word, chain spill, and copy-based migration. `buckets` is
// the GROUP count — the same number the chain engine gets as its
// bucket count, so at the benchmark's ~1-2 elements/bucket load the
// groups run sparse and the series isolates the lookup-locality win.
// Ablation A8's memory rows price the sparsity (and a dense
// configuration) against the chain engine's per-node overhead.
func NewRPFlat(buckets uint64) Engine {
	return &rpFlatEngine{t: core.NewUint64[int](
		core.WithInitialBuckets(buckets), core.WithEngine(core.EngineFlat))}
}

func (e *rpFlatEngine) Name() string { return "rp-flat" }
func (e *rpFlatEngine) NewLookup() (Lookup, func()) {
	h := e.t.NewReadHandle()
	return func(k uint64) bool {
		_, ok := h.Get(k)
		return ok
	}, h.Close
}
func (e *rpFlatEngine) Set(k uint64, v int) { e.t.Set(k, v) }
func (e *rpFlatEngine) Delete(k uint64)     { e.t.Delete(k) }
func (e *rpFlatEngine) Resize(n uint64)     { e.t.Resize(n) }
func (e *rpFlatEngine) Close()              { e.t.Close() }

// ---- RP single-mutex (ablation baseline: the paper's writer model) ----

type rpSingleLockEngine struct{ t *core.Table[uint64, int] }

// NewRPSingleLock builds the relativistic table with WithStripes(1):
// every mutation serializes on one lock, exactly the paper's writer
// model and exactly this repository's pre-striping behavior. It
// exists as the baseline the striped writer path (the default RP
// engine) is measured against in figure 5 and ablation A5; it is not
// a configuration anyone should deploy.
func NewRPSingleLock(buckets uint64) Engine {
	return &rpSingleLockEngine{t: core.NewUint64[int](
		core.WithInitialBuckets(buckets), core.WithStripes(1))}
}

func (e *rpSingleLockEngine) Name() string { return "RP-1lock" }
func (e *rpSingleLockEngine) NewLookup() (Lookup, func()) {
	h := e.t.NewReadHandle()
	return func(k uint64) bool {
		_, ok := h.Get(k)
		return ok
	}, h.Close
}
func (e *rpSingleLockEngine) Set(k uint64, v int) { e.t.Set(k, v) }
func (e *rpSingleLockEngine) Delete(k uint64)     { e.t.Delete(k) }
func (e *rpSingleLockEngine) Resize(n uint64)     { e.t.Resize(n) }
func (e *rpSingleLockEngine) Close()              { e.t.Close() }

// ---- RP locked-write / CAS-write (write fast-path ablation pair) ----

// NewRPLockedWrite builds the relativistic table with the lock-free
// insert fast path disabled: every write takes its stripe, exactly
// this repository's pre-fast-path write behavior. It is the striped
// baseline the CAS write path is measured against in figure 5 and
// ablation A7.
func NewRPLockedWrite(buckets uint64) Engine {
	return &rpCASWriteEngine{name: "rp-lockedwrite", t: core.NewUint64[int](
		core.WithInitialBuckets(buckets), core.WithCASInsert(false))}
}

// NewRPCASWrite builds the relativistic table with the lock-free
// insert fast path explicitly enabled (the shipping default, pinned
// here so the series keeps measuring the fast path even if the
// default ever changes).
func NewRPCASWrite(buckets uint64) Engine {
	return &rpCASWriteEngine{name: "rp-caswrite", t: core.NewUint64[int](
		core.WithInitialBuckets(buckets), core.WithCASInsert(true))}
}

type rpCASWriteEngine struct {
	name string
	t    *core.Table[uint64, int]
}

func (e *rpCASWriteEngine) Name() string { return e.name }
func (e *rpCASWriteEngine) NewLookup() (Lookup, func()) {
	h := e.t.NewReadHandle()
	return func(k uint64) bool {
		_, ok := h.Get(k)
		return ok
	}, h.Close
}
func (e *rpCASWriteEngine) Set(k uint64, v int) { e.t.Set(k, v) }
func (e *rpCASWriteEngine) Delete(k uint64)     { e.t.Delete(k) }
func (e *rpCASWriteEngine) Resize(n uint64)     { e.t.Resize(n) }
func (e *rpCASWriteEngine) Close()              { e.t.Close() }

// ---- RP sharded (internal/shard: write scaling over the RP core) ----

type rpShardedEngine struct {
	name string
	m    *shard.Map[uint64, int]
}

// NewRPSharded builds the sharded relativistic-map engine with the
// default shard count (NextPowerOfTwo(GOMAXPROCS), overridable via
// DefaultShards) and the given total bucket count.
func NewRPSharded(buckets uint64) Engine {
	return NewRPShardedN(DefaultShards, buckets)
}

// NewRPShardedN builds the sharded engine with an explicit shard
// count (0 = auto).
func NewRPShardedN(shards int, buckets uint64) Engine {
	opts := []shard.Option{shard.WithInitialBuckets(buckets)}
	if shards > 0 {
		opts = append(opts, shard.WithShards(shards))
	}
	return &rpShardedEngine{name: "rp-sharded", m: shard.NewUint64[int](opts...)}
}

// NewRPFlatSharded is NewRPSharded on the flat engine: every shard
// table uses core.EngineFlat. The batch read path (figure 7) and the
// whole shard.Map veneer are engine-agnostic — this engine exists to
// prove it with numbers.
func NewRPFlatSharded(buckets uint64) Engine {
	opts := []shard.Option{shard.WithInitialBuckets(buckets), shard.WithEngine(core.EngineFlat)}
	if DefaultShards > 0 {
		opts = append(opts, shard.WithShards(DefaultShards))
	}
	return &rpShardedEngine{name: "rp-flat-sharded", m: shard.NewUint64[int](opts...)}
}

// DefaultShards is the shard count NewRPSharded uses; 0 means
// NextPowerOfTwo(GOMAXPROCS). The CLI's -shards flag sets it.
var DefaultShards int

func (e *rpShardedEngine) Name() string { return e.name }
func (e *rpShardedEngine) NewLookup() (Lookup, func()) {
	h := e.m.NewReadHandle()
	return func(k uint64) bool {
		_, ok := h.Get(k)
		return ok
	}, h.Close
}
func (e *rpShardedEngine) Set(k uint64, v int) { e.m.Set(k, v) }
func (e *rpShardedEngine) Delete(k uint64)     { e.m.Delete(k) }
func (e *rpShardedEngine) Resize(n uint64)     { e.m.Resize(n) }
func (e *rpShardedEngine) Close()              { e.m.Close() }

// NewLookupBatch routes through Map.GetBatch: hash once, group by
// shard, one reader section per touched shard.
func (e *rpShardedEngine) NewLookupBatch() (LookupBatch, func()) {
	var vals []int
	return func(ks []uint64, oks []bool) {
		if cap(vals) < len(ks) {
			vals = make([]int, len(ks))
		}
		e.m.GetBatch(ks, vals[:len(ks)], oks)
	}, nil
}

// ---- RP cache (internal/cache: TTL + eviction layer over the map) ----

// TTLSetter is the optional engine extension the TTL workload uses:
// engines with an expiry notion implement it; for the rest the
// workload falls back to plain Set.
type TTLSetter interface {
	SetTTL(k uint64, v int, ttl time.Duration)
}

type rpCacheEngine struct{ c *cache.Cache[uint64, int] }

// NewRPCache builds the caching-layer engine: the sharded
// relativistic map dressed with coarse-clock TTL expiry, a background
// sweeper, and sampled-LRU accounting. Lookups route through the
// cache's expiry check, so figure-1-style sweeps measure the true
// cache hit path, not the bare map.
func NewRPCache(buckets uint64) Engine {
	opts := []cache.Option{
		cache.WithInitialBuckets(buckets),
		cache.WithPolicy(core.Policy{}), // pinned size, like the other engines
		cache.WithSweepInterval(50 * time.Millisecond),
	}
	if DefaultShards > 0 {
		opts = append(opts, cache.WithShards(DefaultShards))
	}
	return &rpCacheEngine{c: cache.NewUint64[int](opts...)}
}

func (e *rpCacheEngine) Name() string { return "rp-cache" }
func (e *rpCacheEngine) NewLookup() (Lookup, func()) {
	get, release := e.c.NewGetter()
	return func(k uint64) bool {
		_, ok := get(k)
		return ok
	}, release
}
func (e *rpCacheEngine) Set(k uint64, v int) { e.c.Set(k, v) }
func (e *rpCacheEngine) SetTTL(k uint64, v int, ttl time.Duration) {
	e.c.SetTTL(k, v, ttl)
}
func (e *rpCacheEngine) Delete(k uint64) { e.c.Delete(k) }
func (e *rpCacheEngine) Resize(n uint64) { e.c.Resize(n) }
func (e *rpCacheEngine) Close()          { e.c.Close() }

// NewLookupBatch routes through Cache.GetMulti: the map's batch
// lookup plus a single coarse-clock read and one striped-counter add
// for the whole batch.
func (e *rpCacheEngine) NewLookupBatch() (LookupBatch, func()) {
	var vals []int
	return func(ks []uint64, oks []bool) {
		if cap(vals) < len(ks) {
			vals = make([]int, len(ks))
		}
		e.c.GetMulti(ks, vals[:len(ks)], oks)
	}, nil
}

// ---- RP with QSBR readers (kernel-RCU read-side cost model) ----

type rpQSBREngine struct{ t *core.Table[uint64, int] }

// NewRPQSBR builds the relativistic-table engine with
// quiescent-state-based readers: zero read-side synchronization per
// lookup, quiescent states announced every 64 lookups. This matches
// the read-side cost of the paper's kernel-module benchmark, where
// rcu_read_lock is free.
func NewRPQSBR(buckets uint64) Engine {
	return &rpQSBREngine{t: core.NewUint64[int](core.WithInitialBuckets(buckets))}
}

func (e *rpQSBREngine) Name() string { return "RP-qsbr" }
func (e *rpQSBREngine) NewLookup() (Lookup, func()) {
	h := e.t.NewQSBRHandle()
	return func(k uint64) bool {
		_, ok := h.Get(k)
		return ok
	}, h.Close
}
func (e *rpQSBREngine) Set(k uint64, v int) { e.t.Set(k, v) }
func (e *rpQSBREngine) Delete(k uint64)     { e.t.Delete(k) }
func (e *rpQSBREngine) Resize(n uint64)     { e.t.Resize(n) }
func (e *rpQSBREngine) Close()              { e.t.Close() }

// ---- DDDS baseline ----

type dddsEngine struct{ t *ddds.Table[uint64, int] }

// NewDDDS builds the DDDS-style baseline engine.
func NewDDDS(buckets uint64) Engine {
	return &dddsEngine{t: ddds.NewUint64[int](buckets)}
}

func (e *dddsEngine) Name() string { return "DDDS" }
func (e *dddsEngine) NewLookup() (Lookup, func()) {
	return func(k uint64) bool {
		_, ok := e.t.Get(k)
		return ok
	}, nil
}
func (e *dddsEngine) Set(k uint64, v int) { e.t.Set(k, v) }
func (e *dddsEngine) Delete(k uint64)     { e.t.Delete(k) }
func (e *dddsEngine) Resize(n uint64)     { e.t.Resize(n) }
func (e *dddsEngine) Close()              { e.t.Close() }

// ---- lock-based baselines ----

type lockEngine struct {
	name string
	t    *lockht.Table[uint64, int]
}

// NewRWLock builds the global reader-writer-lock baseline (the
// paper's "rwlock" curve).
func NewRWLock(buckets uint64) Engine {
	return &lockEngine{name: "rwlock", t: lockht.NewUint64[int](lockht.RWLock, buckets)}
}

// NewMutex builds the global-mutex baseline.
func NewMutex(buckets uint64) Engine {
	return &lockEngine{name: "mutex", t: lockht.NewUint64[int](lockht.Mutex, buckets)}
}

// NewSharded builds the per-bucket-lock baseline (fine-grained
// locking ablation).
func NewSharded(buckets uint64) Engine {
	return &lockEngine{name: "sharded", t: lockht.NewUint64[int](lockht.Sharded, buckets)}
}

func (e *lockEngine) Name() string { return e.name }
func (e *lockEngine) NewLookup() (Lookup, func()) {
	return func(k uint64) bool {
		_, ok := e.t.Get(k)
		return ok
	}, nil
}
func (e *lockEngine) Set(k uint64, v int) { e.t.Set(k, v) }
func (e *lockEngine) Delete(k uint64)     { e.t.Delete(k) }
func (e *lockEngine) Resize(n uint64)     { e.t.Resize(n) }
func (e *lockEngine) Close()              { e.t.Close() }

// ---- Xu-style two-pointer table (ablation) ----

type xuEngine struct{ t *xu.Table[uint64, int] }

// NewXu builds the Herbert-Xu-style two-pointer engine.
func NewXu(buckets uint64) Engine {
	return &xuEngine{t: xu.NewUint64[int](buckets)}
}

func (e *xuEngine) Name() string { return "xu" }
func (e *xuEngine) NewLookup() (Lookup, func()) {
	r := e.t.Domain().Register()
	tbl := e.t
	return func(k uint64) bool {
		r.Lock()
		_, ok := lookupXu(tbl, k)
		r.Unlock()
		return ok
	}, r.Close
}
func (e *xuEngine) Set(k uint64, v int) { e.t.Set(k, v) }
func (e *xuEngine) Delete(k uint64)     { e.t.Delete(k) }
func (e *xuEngine) Resize(n uint64)     { e.t.Resize(n) }
func (e *xuEngine) Close()              { e.t.Close() }

// lookupXu calls Get without the pooled read section (the caller
// already holds one); xu.Table.Get would nest harmlessly, so this is
// purely to keep hot-path costs comparable across engines.
func lookupXu(t *xu.Table[uint64, int], k uint64) (int, bool) {
	return t.Get(k)
}

// ---- sync.Map (standard-library comparator; repo extension) ----

type syncMapEngine struct {
	m sync.Map
}

// NewSyncMap builds a sync.Map-backed engine. sync.Map has no notion
// of buckets; Resize is a no-op. It is included as a familiar
// reference curve, not a paper baseline.
func NewSyncMap(uint64) Engine { return &syncMapEngine{} }

func (e *syncMapEngine) Name() string { return "sync.Map" }
func (e *syncMapEngine) NewLookup() (Lookup, func()) {
	return func(k uint64) bool {
		_, ok := e.m.Load(k)
		return ok
	}, nil
}
func (e *syncMapEngine) Set(k uint64, v int) { e.m.Store(k, v) }
func (e *syncMapEngine) Delete(k uint64)     { e.m.Delete(k) }
func (e *syncMapEngine) Resize(uint64)       {}
func (e *syncMapEngine) Close()              {}

// Builders maps engine names to constructors, for the CLI.
var Builders = map[string]func(buckets uint64) Engine{
	"rp":              NewRP,
	"rp-flat":         NewRPFlat,
	"rp-flat-sharded": NewRPFlatSharded,
	"rp-1lock":        NewRPSingleLock,
	"rp-caswrite":     NewRPCASWrite,
	"rp-lockedwrite":  NewRPLockedWrite,
	"rp-sharded":      NewRPSharded,
	"rp-cache":        NewRPCache,
	"rpqsbr":          NewRPQSBR,
	"ddds":            NewDDDS,
	"rwlock":          NewRWLock,
	"mutex":           NewMutex,
	"sharded":         NewSharded,
	"xu":              NewXu,
	"syncmap":         NewSyncMap,
}
