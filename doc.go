// Package rphash is a resizable, scalable, concurrent hash table
// built with relativistic programming — a from-scratch Go
// reproduction of Triplett, McKenney and Walpole, "Resizable,
// Scalable, Concurrent Hash Tables via Relativistic Programming"
// (USENIX ATC 2011).
//
// Lookups take no locks, perform no atomic read-modify-write
// operations, and never retry; they scale linearly with cores. The
// table can double or halve its bucket count while lookups proceed at
// full speed: shrinking "zips" sibling chains together, expansion
// "unzips" interleaved chains with one pointer cut per chain per
// grace period, and at every intermediate state a reader walking a
// bucket observes every element that belongs to it.
//
// # Quick start
//
//	tbl := rphash.NewString[string]()
//	defer tbl.Close()
//
//	tbl.Set("k", "v")
//	v, ok := tbl.Get("k")       // convenient lookup
//
//	h := tbl.NewReadHandle()    // per-goroutine hot-path lookups
//	defer h.Close()
//	v, ok = h.Get("k")
//
//	tbl.Resize(1 << 16)         // lookups continue, unperturbed
//
// Writers (Set, Insert, Replace, Delete, Move) lock per bucket, not
// per table: mutations serialize on a striped array of writer locks
// indexed by the key hash's low bits (default a few stripes per
// core; WithStripes overrides, and WithStripes(1) reproduces the
// paper's single writer mutex). Writers to different chains proceed
// in parallel. The stripe count never exceeds the bucket count, so
// one stripe always covers every chain a key's mutation could touch
// — including mid-resize chains spanning a parent bucket and both
// its children. Lock ordering is fixed (Move takes two stripes
// ascending; batch writes visit stripes in ascending sorted order,
// one at a time; resize takes all of them ascending), so writers,
// batches, and resizes can never deadlock.
//
// A delete is an unlink and nothing more. The paper's delete waits
// for readers before freeing the node; here the garbage collector is
// the free and does that waiting itself, so chain-engine writes queue
// no grace-period work: an unlinked node keeps its next pointer, a
// reader standing on it walks on into the live chain, and the node is
// collected when the last such reader lets go. Grace periods are paid
// only where they order readers against redirected pointers — inside
// resizes — and where memory is reused in place (the flat engine's
// cells).
//
// Resize coordinates with writers through the same stripes: the
// array-construction and publish steps briefly hold every stripe,
// each unzip migration batch holds exactly one, and the grace-period
// waits — where resizes spend nearly all their time — hold none, so
// writers keep flowing through a resize. Install a Policy (or use
// DefaultPolicy) to have the table resize itself by load factor;
// writes that find the table more than twice past the grow watermark
// help the in-flight expansion synchronously rather than outrun it,
// keeping the load factor bounded under saturating write pressure.
//
// # Table versus Map versus Cache
//
// Table is the paper's data structure with a finer writer side:
// wait-free readers, striped per-bucket writers, Move and Resize
// atomic over the whole structure. It scales reads and writes with
// cores by itself and is the default choice.
//
// Map shards keys across a power-of-two array of Tables — routed by
// the HIGH bits of the same 64-bit hash, so per-shard bucket masks
// (which use the low bits) stay well mixed. With striped tables the
// shards' main job is resize isolation: a resize's brief all-stripe
// phases stall only that shard's keys, and shards resize
// independently and in parallel. Reach for it on resize-heavy or
// extremely write-hot workloads:
//
//	m := rphash.NewMapString[int](rphash.WithShards(8))
//	defer m.Close()
//	m.Set("k", 1)
//	v, ok := m.Get("k")
//
//	h := m.NewReadHandle()      // one reader spans all shards
//	defer h.Close()
//	v, ok = h.Get("k")
//
// Every shard shares one Domain, so a ReadHandle registers a single
// reader for the whole map and the read-side cost is identical to a
// single Table's. Len, Stats, and Range aggregate across shards; a
// Policy applies to each shard independently, so hot shards expand on
// their own. The trade-offs: cross-shard Move is
// publish-before-unlink (never absent) but not atomic against writers
// racing on the same two keys, and Resize divides its target across
// shards rather than resizing one array.
//
// Cache layers caching semantics on top of Map: TTL expiry from a
// coarse clock (lazy on the read path, reclaimed by an incremental
// background sweeper), a cost budget enforced by per-shard sampled-LRU
// eviction, and a singleflight GetOrLoad so a miss storm on one hot
// key performs exactly one load. A hit stays lock-free and
// allocation-free. Maintenance costs what it touches, not what the
// cache holds: an eviction examines a fixed sample of entries (16,
// from two random places in a shard), and each sweeper tick visits at
// most 2048 entries of one shard and resumes there next time, so a
// full expiry pass takes entries/2048 ticks (100k entries: 49 ticks;
// 1M: 490) while no single reader section grows with the cache.
// Reach for Cache when entries have lifetimes or memory must be
// bounded; reach for Map when you want a plain concurrent map and
// will manage lifecycle yourself; reach for Table everywhere else.
//
//	c := rphash.NewCacheString[[]byte](
//		rphash.WithCacheTTL(time.Minute),
//		rphash.WithCacheMaxCost(64<<20), // bytes, via SetWith costs
//	)
//	defer c.Close()                     // stops sweeper + clock
//
//	c.SetWith("k", payload, time.Hour, int64(len(payload))) // 0 TTL = never expire
//	v, err := c.GetOrLoad("hot", loadFromBackend) // one load per storm
//
// # Engines
//
// The bucket representation is pluggable: WithEngine (WithMapEngine,
// WithCacheEngine) selects between two layouts behind one seam, with
// identical semantics on every operation above. EngineChain (the
// default) is the paper's relativistic linked chains — lock-free
// reads, CAS-insert write fast path, in-place unzip resize that
// never copies a node. EngineFlat trades the pointer chase for
// cache-line contiguity: each bucket is eight cells holding key and
// value inline behind a packed word of eight 8-bit hash tags; a
// lookup loads the tag word once, SWAR-scans it, and touches only
// matching cells (one cache line for the common miss, two for the
// hit), spilling past eight cells into an overflow chain. An insert
// allocates nothing; a replace publishes its value in a fresh heap
// box, so readers never see a torn value. Cells publish and retire
// through atomic tag-word stores ordered against a grace period, so
// reads stay wait-free. Because inline cells cannot be relinked, the
// flat engine resizes by relativistic per-bucket copying — publish
// the new group array, copy each bucket's elements under its stripe
// (values land inline again; one grace period before and after the
// pass), readers routing per bucket by a migrated flag the way chain
// readers route by epoch — and consequently takes a stripe for every
// write: a lock-free value CAS could be lost to a concurrent bucket
// copy.
// Single-threaded reads run ~30-50% faster than chains and dense
// tables spend ~45% fewer bytes per element; sparse tables invert
// that, paying per group rather than per element (ablation A8,
// README "Engines" for measured numbers).
//
// # Batched operations
//
// Readers are cheap but not free: each lookup pays a reader-section
// entry/exit (two reader-local atomic stores) plus, on the
// convenience paths, a pooled-reader round-trip — and each write
// locks its key's stripe. Callers holding many keys at once
// (multi-key GET, warm-ups, bulk loads) should use the batch API,
// which hashes each key once, groups keys by shard and stripe, and
// amortizes synchronization over the group:
//
//	m.GetBatch(keys, vals, oks)  // ONE reader section per touched shard
//	m.SetBatch(keys, vals)       // sorted-stripe locking: each touched
//	                             // stripe locked once per shard group
//	m.DeleteBatch(keys)          // same grouping and lock amortization
//	c.GetMulti(keys, vals, oks)  // batched hit path (clock + counters
//	                             // also amortized per batch)
//	c.GetOrLoadMulti(keys, load) // one loader call for the whole miss
//	                             // set; each key still singleflights
//
// A B-key batch over S shards enters at most min(B, S) reader
// sections (Map.BatchSections counts them). A batch is not a
// cross-shard snapshot: per-key semantics are exactly the single-key
// operations', and concurrent writers may land between shard groups.
// Duplicate keys in a write batch apply in order (last value wins).
//
// For unbounded traversals, RangeChunked (on Table, Map, and Cache)
// bounds how long any one reader section lives: it collects a chunk
// of elements per section and invokes the callback OUTSIDE it, so a
// huge or slow iteration never extends grace periods — Range, by
// contrast, holds one section for the entire walk, delaying all
// memory reclamation behind it. The trade-off: if the table shrinks
// between chunks, the traversal may report some elements twice (it
// never skips one: the cursor walks buckets in bit-reversed order,
// which survives resizes).
//
// # Fixed writer shape
//
// As in the paper, the writer side has a fixed shape. A table's
// stripe array is built with the table (WithStripes, or a few stripes
// per core by default) and never replaced; only the effective stripe
// mask moves, at resize boundaries, so it never exceeds the bucket
// count. Each resize step migrates with one sequential resizer, one
// stripe at a time, sharing one grace period per pass. Every stripe
// counts its acquisitions and its contended acquisitions (a failed
// TryLock before blocking) on its own cache line, which the acquiring
// writer already owns, so the telemetry in Stats costs the write path
// nothing measurable.
//
// # Observability
//
// Table.Stats, Map.DetailedStats (per-shard bucket
// totals, load factors, resize counts), and Cache.Stats (hits,
// misses, loads, evictions, expirations, cost, plus the underlying
// MapStats) are one-call snapshots safe to poll from monitoring
// loops. Stats carries the stripe telemetry (StripeAcquires,
// StripeContended, EffectiveStripes) and the migration backlog
// (UnzipBacklog) alongside the resize internals.
//
// For latency distributions and lifecycle tracing, pass an Observer
// (NewObserver) via WithObserver, WithMapObserver, or
// WithCacheObserver: lock-free power-of-two histograms then record
// RCU grace-period waits, contended writer stripe-lock waits, and
// cache loader latency (each Record is one atomic add, zero
// allocations), and a fixed-size concurrent event ring captures every
// resize's full lifecycle — publish, per-pass unzip batches, grace
// waits, completion — plus CAS-insert undos, emitting runtime/trace
// regions when tracing is active. Snapshot folds it all into plain
// values; Registry + Observe export everything as Prometheus text and
// expvar-style JSON alongside net/http/pprof. A nil Observer (the
// default) costs one pointer compare per instrumented site, and the
// lock-free read path is never instrumented.
//
// WithFlightRecorder adds a sampled per-operation record stream on
// top: one in N table writes (default 1024) records its op class,
// path taken — lock-free CAS insert, hint replace, striped fallback,
// flat migration assist, overflow spill — outcome, shard, stripe,
// and latency into striped seqlock rings, never blocking and never
// allocating; torn slots are skipped on read. Observe serves the
// aggregation at /debug/ops; AggregateOps returns it as data.
// Measured on the hot upsert path, observer-off runs 69.2
// ns/op, observer-on 69.4 ns/op (within noise), and recorder-on at
// default sampling 74.0 ns/op — the unsampled majority pays one
// atomic ticket.
//
// Watchdog is the anomaly self-check: started over a Cache with
// StartWatchdog (or obs.NewWatchdog with a custom sampler), it
// inspects grace-period progress, stripe contention, resize backlog,
// and evictions each tick, detecting grace-period stalls, stripe
// convoys, stuck resizes, and eviction storms. Detections land in the
// event ring and per-class trip counters; the first trip per class
// writes a diagnostic bundle (goroutines, events, histograms,
// metrics, flight summary) to the configured directory. Its clock is
// injected, so tests trigger detection deterministically with a
// manual clock and a synchronous Tick.
//
// The same plane exposes engine introspection: chain unzip backlog,
// per-unit migration progress and rate for the in-flight resize, and
// — on the flat engine — a bounded strided-sample occupancy histogram
// over the 8-cell groups with spill counters and the spilled/sampled
// ratio, surfaced through Stats, /metrics, and the memcached ASCII
// stats command.
//
// # Static analysis
//
// Relativistic code has rules the compiler cannot check, so the
// repository checks them itself: cmd/rplint (runnable standalone or
// as go vet -vettool) enforces three disciplines over the whole
// module. Read-side critical sections must never block — no channel
// operations, mutex acquisitions, sleeps, or blocking I/O inside
// rcu.Read, including transitively through helpers (rplint/
// readersection). A field accessed with sync/atomic anywhere must be
// accessed with sync/atomic everywhere, across packages
// (rplint/atomicmix). And no code path may wait for — or queue —
// an RCU grace period while holding a writer stripe or mutex, or
// inside a reader section, since the grace period cannot end until
// those readers leave (rplint/gracewait). Violations fail CI;
// deliberate exceptions carry a //lint:allow rplint/<name> <reason>
// justification in the source.
//
// The internal packages contain the full reproduction apparatus: the
// epoch-based RCU runtime (internal/rcu), the baseline tables the
// paper compares against (internal/ddds, internal/lockht,
// internal/xu), a mini-memcached with a relativistic GET fast path
// (internal/memcache; cmd/memcached also makes the Go heap target
// follow its -max-bytes budget), and the benchmark harness
// regenerating every figure in the paper's evaluation (internal/bench,
// cmd/rphash-bench, cmd/mc-benchmark). See DESIGN.md and
// EXPERIMENTS.md.
package rphash
