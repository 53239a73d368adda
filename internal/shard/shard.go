// Package shard provides a sharded front-end over the relativistic
// hash table: a Map partitions its keys across a power-of-two array
// of core.Table shards, while the read side stays exactly the
// paper's: wait-free, lock-free, retry-free.
//
// Since the core table gained per-bucket writer stripes, a single
// table already scales with concurrent writers; shards are no longer
// the primary write-scaling mechanism. What sharding still buys:
// resize isolation (a resize's brief all-stripes phases and
// migration batches stall only 1/Nth of the keyspace, and shards
// resize independently and concurrently), shorter chains per resize
// step, and more total write parallelism than one table's stripe
// array under extreme writer counts. The default shard count is
// accordingly modest — see DefaultShards — with WithShards as the
// escape hatch in either direction.
//
// Shard routing uses the HIGH bits of the same 64-bit hash the tables
// themselves use. Bucket selection inside a shard masks the LOW bits,
// so the two never alias: every shard sees a well-mixed low-bit
// distribution regardless of the shard count, and per-shard bucket
// masks stay balanced.
//
// All shards share one rcu.Domain. A ReadHandle therefore registers a
// single reader that spans the whole map, and a resize in one shard
// never waits on machinery private to another. Point writes ask
// nothing of the domain: under the chain engine only a resize step
// waits for a grace period (unlinked nodes are the collector's), and
// the flat engine's cell retirements from every shard share the one
// reclaimer.
package shard

import (
	"runtime"
	"sync"

	"rphash/internal/core"
	"rphash/internal/hashfn"
	"rphash/internal/obs"
	"rphash/internal/rcu"
	"rphash/internal/stats"
)

// Map is a sharded relativistic hash map. Create with New; the zero
// value is not usable.
type Map[K comparable, V any] struct {
	shards []*core.Table[K, V]
	dom    *rcu.Domain
	hash   func(K) uint64
	shift  uint // shard index = hash >> shift (high bits)
	ownDom bool

	// scratchPool recycles batch-operation workspaces (see batch.go).
	scratchPool sync.Pool
	// batchSections counts reader sections entered by batch gets — the
	// observability/test hook behind BatchSections. Striped so batch
	// readers on different cores don't ping-pong one counter line.
	batchSections stats.Striped
}

type config struct {
	shards  uint64
	initial uint64 // total across shards; 0 = core default per shard
	stripes int
	engine  string
	policy  core.Policy
	dom     *rcu.Domain
	obsv    *obs.Observer
}

// Option configures a Map at construction.
type Option func(*config)

// WithShards sets the shard count (rounded up to a power of two,
// minimum 1), overriding the DefaultShards heuristic in either
// direction: more shards for resize-heavy or extremely write-hot
// workloads, one shard to get a single table with Map conveniences.
func WithShards(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.shards = hashfn.NextPowerOfTwo(uint64(n))
	}
}

// WithDomain shares an existing RCU domain instead of creating one.
// Close will not close a shared domain.
func WithDomain(d *rcu.Domain) Option { return func(c *config) { c.dom = d } }

// WithInitialBuckets sets the total initial bucket count across all
// shards (each shard gets its share, rounded up to a power of two).
func WithInitialBuckets(total uint64) Option { return func(c *config) { c.initial = total } }

// WithPolicy installs an automatic resize policy. Load-factor
// watermarks are scale-free and apply to each shard as-is; MinBuckets
// is interpreted as a map-wide floor and divided across shards.
func WithPolicy(p core.Policy) Option { return func(c *config) { c.policy = p } }

// WithEngine selects every shard table's bucket representation (see
// core.WithEngine): core.EngineChain (the default) or core.EngineFlat.
// One engine serves the whole map; the choice is invisible above the
// core API.
func WithEngine(name string) Option { return func(c *config) { c.engine = name } }

// WithTableStripes sets each shard table's physical writer-stripe
// count (see core.WithStripes). The core default — a few stripes per
// core — is right for almost everyone; WithTableStripes(1) restores
// the paper's one-mutex-per-table writer model for ablations.
func WithTableStripes(n int) Option { return func(c *config) { c.stripes = n } }

// WithObserver wires every shard table — and the map's shared RCU
// domain — into an observability hub (see internal/obs and
// core.WithObserver). Each shard tags its events and histogram
// records with its shard index. nil (the default) keeps every
// instrumentation point at one pointer compare.
func WithObserver(o *obs.Observer) Option { return func(c *config) { c.obsv = o } }

// DefaultShards returns the default shard count for this process:
// one shard per ~4 cores (power of two, capped at 16). Before the
// core table had striped writer locks this was
// NextPowerOfTwo(GOMAXPROCS) — every core needed its own table
// mutex to scale writes. Now each table carries its own stripe
// array (a few stripes per core), so writer parallelism comes from
// stripes and shards are kept for resize isolation; a handful is
// enough, and fewer shards mean better per-table load statistics
// and fewer resize storms.
func DefaultShards() int {
	n := hashfn.NextPowerOfTwo(uint64(max(runtime.GOMAXPROCS(0)/4, 1)))
	if n > 16 {
		n = 16
	}
	return int(n)
}

// New creates a Map using hash to map keys to 64-bit hashes. The hash
// must be deterministic for the lifetime of the map and should mix
// both its high bits (shard routing) and low bits (bucket selection)
// well; the mixers in internal/hashfn qualify.
func New[K comparable, V any](hash func(K) uint64, opts ...Option) *Map[K, V] {
	cfg := config{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards == 0 {
		cfg.shards = uint64(DefaultShards())
	}

	m := &Map[K, V]{
		shards: make([]*core.Table[K, V], cfg.shards),
		hash:   hash,
		shift:  shardShift(cfg.shards),
	}
	if cfg.dom != nil {
		m.dom = cfg.dom
	} else {
		m.dom = rcu.NewDomain()
		m.ownDom = true
	}

	tblOpts := []core.Option{core.WithDomain(m.dom)}
	if cfg.initial > 0 {
		tblOpts = append(tblOpts, core.WithInitialBuckets(perShard(cfg.initial, cfg.shards)))
	}
	if cfg.stripes > 0 {
		tblOpts = append(tblOpts, core.WithStripes(cfg.stripes))
	}
	if cfg.engine != "" {
		tblOpts = append(tblOpts, core.WithEngine(cfg.engine))
	}
	p := cfg.policy
	if p.MinBuckets > 0 {
		p.MinBuckets = perShard(p.MinBuckets, cfg.shards)
	}
	if p != (core.Policy{}) {
		tblOpts = append(tblOpts, core.WithPolicy(p))
	}
	for i := range m.shards {
		opts := tblOpts
		if cfg.obsv != nil {
			opts = append(opts[:len(opts):len(opts)],
				core.WithObserver(cfg.obsv), core.WithShardID(i))
		}
		m.shards[i] = core.New[K, V](hash, opts...)
	}
	return m
}

// NewUint64 creates a map keyed by uint64 with the standard
// splitmix64 finalizer.
func NewUint64[V any](opts ...Option) *Map[uint64, V] {
	return New[uint64, V](func(k uint64) uint64 { return hashfn.Uint64(k, 0) }, opts...)
}

// NewString creates a map keyed by string with seeded FNV-1a plus an
// avalanche finalizer.
func NewString[V any](opts ...Option) *Map[string, V] {
	return New[string, V](func(k string) uint64 { return hashfn.String(k, 0) }, opts...)
}

// shardShift returns the right-shift that extracts a shard index from
// the high bits of a 64-bit hash. For one shard the shift is 64,
// which Go defines to yield 0.
func shardShift(shards uint64) uint {
	shift := uint(64)
	for s := uint64(1); s < shards; s <<= 1 {
		shift--
	}
	return shift
}

// perShard divides a map-wide size across shards, rounding so no
// shard gets zero.
func perShard(total, shards uint64) uint64 {
	return max(hashfn.NextPowerOfTwo(total)/shards, 1)
}

// shardFor routes a hash to its shard.
func (m *Map[K, V]) shardFor(h uint64) *core.Table[K, V] {
	return m.shards[h>>m.shift]
}

// NumShards returns the shard count.
func (m *Map[K, V]) NumShards() int { return len(m.shards) }

// Shard exposes shard i's table (tests and stats tooling).
func (m *Map[K, V]) Shard(i int) *core.Table[K, V] { return m.shards[i] }

// Domain exposes the map's shared RCU domain.
func (m *Map[K, V]) Domain() *rcu.Domain { return m.dom }

// Hash exposes the map's hash of k, for front-ends (internal/cache)
// that hash once and drive the *Hashed entry points.
func (m *Map[K, V]) Hash(k K) uint64 { return m.hash(k) }

// ShardIndex routes a hash to its shard's index.
func (m *Map[K, V]) ShardIndex(h uint64) int { return int(h >> m.shift) }

// Get returns the value for k. Read-side cost is identical to a
// single table: one pooled reader section around one chain walk, plus
// a shift to pick the shard.
func (m *Map[K, V]) Get(k K) (V, bool) {
	return m.GetHashed(m.hash(k), k)
}

// GetHashed is Get with the key's hash precomputed; h must equal the
// map's hash of k.
func (m *Map[K, V]) GetHashed(h uint64, k K) (V, bool) {
	var v V
	var ok bool
	m.dom.Read(func() {
		v, ok = m.shardFor(h).LookupInReader(h, k)
	})
	return v, ok
}

// Contains reports whether k is present.
func (m *Map[K, V]) Contains(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// Set upserts k, returning true if it inserted. Writers to different
// shards — and, within a shard, to different writer stripes —
// proceed in parallel. The hash is computed once and passed through
// to the shard.
func (m *Map[K, V]) Set(k K, v V) bool {
	h := m.hash(k)
	return m.shardFor(h).SetHashed(h, k, v)
}

// Insert adds k only if absent; it reports whether it inserted.
func (m *Map[K, V]) Insert(k K, v V) bool {
	h := m.hash(k)
	return m.shardFor(h).InsertHashed(h, k, v)
}

// Replace updates k only if present; it reports whether it replaced.
func (m *Map[K, V]) Replace(k K, v V) bool {
	h := m.hash(k)
	return m.shardFor(h).ReplaceHashed(h, k, v)
}

// Swap upserts k and returns the value it displaced, if any.
func (m *Map[K, V]) Swap(k K, v V) (V, bool) {
	return m.SwapHashed(m.hash(k), k, v)
}

// SwapHashed is Swap with the key's hash precomputed.
func (m *Map[K, V]) SwapHashed(h uint64, k K, v V) (V, bool) {
	return m.shardFor(h).SwapHashed(h, k, v)
}

// Update runs a read-modify-write for k under its shard's writer
// stripe; see core.Table.Update for fn's contract.
func (m *Map[K, V]) Update(k K, fn func(cur V, present bool) (V, bool)) (prev V, hadPrev, stored bool) {
	return m.UpdateHashed(m.hash(k), k, fn)
}

// UpdateHashed is Update with the key's hash precomputed.
func (m *Map[K, V]) UpdateHashed(h uint64, k K, fn func(cur V, present bool) (V, bool)) (prev V, hadPrev, stored bool) {
	return m.shardFor(h).UpdateHashed(h, k, fn)
}

// CompareAndSwapValue publishes v for k only if match accepts the
// current value, without taking any lock; see
// core.Table.CompareAndSwapValue for the semantics and the caveats of
// mixing it with CompareAndDelete or Move on the same keys.
func (m *Map[K, V]) CompareAndSwapValue(k K, match func(V) bool, v V) (swapped, present bool) {
	return m.CompareAndSwapValueHashed(m.hash(k), k, match, v)
}

// CompareAndSwapValueHashed is CompareAndSwapValue with the key's
// hash precomputed.
func (m *Map[K, V]) CompareAndSwapValueHashed(h uint64, k K, match func(V) bool, v V) (swapped, present bool) {
	return m.shardFor(h).CompareAndSwapValueHashed(h, k, match, v)
}

// Delete removes k, reporting whether it was present.
func (m *Map[K, V]) Delete(k K) bool {
	h := m.hash(k)
	return m.shardFor(h).DeleteHashed(h, k)
}

// CompareAndDelete removes k only if match accepts its current value
// (nil match accepts anything), returning the removed value. See
// core.Table.CompareAndDelete for the guarantee.
func (m *Map[K, V]) CompareAndDelete(k K, match func(V) bool) (V, bool) {
	return m.CompareAndDeleteHashed(m.hash(k), k, match)
}

// CompareAndDeleteHashed is CompareAndDelete with the key's hash
// precomputed.
func (m *Map[K, V]) CompareAndDeleteHashed(h uint64, k K, match func(V) bool) (V, bool) {
	return m.shardFor(h).CompareAndDeleteHashed(h, k, match)
}

// Move renames oldKey to newKey; it fails if oldKey is absent or
// newKey exists. Within one shard it is the table's atomic move. A
// cross-shard move publishes the newKey copy before unlinking the
// oldKey original, so the value is never absent — but the two steps
// take two shard mutexes in sequence, so a writer racing on the SAME
// keys may interleave (e.g. a concurrent Set(oldKey) between copy and
// unlink is lost). Distinct-key operations are unaffected.
func (m *Map[K, V]) Move(oldKey, newKey K) bool {
	oh, nh := m.hash(oldKey), m.hash(newKey)
	src, dst := m.shardFor(oh), m.shardFor(nh)
	if src == dst {
		return src.Move(oldKey, newKey)
	}
	v, ok := src.Get(oldKey)
	if !ok {
		return false
	}
	if !dst.InsertHashed(nh, newKey, v) {
		return false
	}
	src.DeleteHashed(oh, oldKey)
	return true
}

// Len returns the element count (exact with respect to completed
// updates).
func (m *Map[K, V]) Len() int {
	n := 0
	for _, s := range m.shards {
		n += s.Len()
	}
	return n
}

// Buckets returns the total bucket count across shards.
func (m *Map[K, V]) Buckets() int {
	n := 0
	for _, s := range m.shards {
		n += s.Buckets()
	}
	return n
}

// Resize retargets the total bucket count, dividing it across shards.
// Shards resize sequentially; lookups are unperturbed throughout.
func (m *Map[K, V]) Resize(total uint64) {
	per := perShard(total, uint64(len(m.shards)))
	for _, s := range m.shards {
		s.Resize(per)
	}
}

// Range calls fn for every element until fn returns false, walking
// shards in order. Per-shard semantics match Table.Range; there is no
// cross-shard snapshot.
func (m *Map[K, V]) Range(fn func(K, V) bool) {
	cont := true
	for _, s := range m.shards {
		if !cont {
			return
		}
		s.Range(func(k K, v V) bool {
			cont = fn(k, v)
			return cont
		})
	}
}

// Keys returns a snapshot of the keys (order unspecified).
func (m *Map[K, V]) Keys() []K {
	out := make([]K, 0, m.Len())
	m.Range(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// accumulate folds one shard's snapshot into an aggregate: counters
// sum, MaxChain is the max over shards.
func accumulate(agg *core.Stats, st core.Stats) {
	agg.Len += st.Len
	agg.Buckets += st.Buckets
	agg.Stripes += st.Stripes
	agg.EffectiveStripes += st.EffectiveStripes
	agg.StripeAcquires += st.StripeAcquires
	agg.StripeContended += st.StripeContended
	agg.Inserts += st.Inserts
	agg.Deletes += st.Deletes
	agg.Moves += st.Moves
	agg.Expands += st.Expands
	agg.Shrinks += st.Shrinks
	agg.UnzipPasses += st.UnzipPasses
	agg.UnzipCuts += st.UnzipCuts
	agg.AutoGrows += st.AutoGrows
	agg.AutoShrinks += st.AutoShrinks
	agg.CASFastInserts += st.CASFastInserts
	agg.CASFallbacks += st.CASFallbacks
	agg.CASUndos += st.CASUndos
	agg.ValueCASSwaps += st.ValueCASSwaps
	agg.UnzipBacklog += st.UnzipBacklog
	agg.MigrationUnits += st.MigrationUnits
	agg.MigrationDone += st.MigrationDone
	agg.MigrationRate += st.MigrationRate
	agg.FlatSampledGroups += st.FlatSampledGroups
	for i := range agg.FlatOccupancy {
		agg.FlatOccupancy[i] += st.FlatOccupancy[i]
	}
	agg.FlatSpilledGroups += st.FlatSpilledGroups
	agg.FlatSpillEntries += st.FlatSpillEntries
	if st.FlatMaxSpill > agg.FlatMaxSpill {
		agg.FlatMaxSpill = st.FlatMaxSpill
	}
	if st.MaxChain > agg.MaxChain {
		agg.MaxChain = st.MaxChain
	}
}

// Stats aggregates per-shard table stats: counters sum, MaxChain is
// the max over shards, LoadFactor is recomputed map-wide.
func (m *Map[K, V]) Stats() core.Stats {
	var agg core.Stats
	for _, s := range m.shards {
		accumulate(&agg, s.Stats())
	}
	if agg.Buckets > 0 {
		agg.LoadFactor = float64(agg.Len) / float64(agg.Buckets)
	}
	return agg
}

// CounterStats aggregates per-shard counter snapshots without any
// bucket walk (see core.Table.CounterStats): O(shards × stripes)
// regardless of map size, so metrics scrapes can poll it freely.
// MaxChain is 0.
func (m *Map[K, V]) CounterStats() core.Stats {
	var agg core.Stats
	for _, s := range m.shards {
		accumulate(&agg, s.CounterStats())
	}
	if agg.Buckets > 0 {
		agg.LoadFactor = float64(agg.Len) / float64(agg.Buckets)
	}
	return agg
}

// MapStats is the sharded map's observability snapshot: the map-wide
// aggregate (embedded) plus each shard's own table snapshot, so
// operators can see per-shard bucket totals, load factors, and resize
// counts — imbalance, resize storms, and hot shards are all visible
// here rather than buried in internal counters.
type MapStats struct {
	core.Stats              // map-wide aggregate
	PerShard   []core.Stats // shard i's table snapshot
}

// DetailedStats gathers a MapStats snapshot. It walks every bucket of
// every shard (for MaxChain); on huge maps prefer Stats-free
// monitoring via Len/Buckets.
func (m *Map[K, V]) DetailedStats() MapStats {
	ms := MapStats{PerShard: make([]core.Stats, len(m.shards))}
	for i, s := range m.shards {
		ms.PerShard[i] = s.Stats()
		accumulate(&ms.Stats, ms.PerShard[i])
	}
	if ms.Buckets > 0 {
		ms.LoadFactor = float64(ms.Len) / float64(ms.Buckets)
	}
	return ms
}

// Close releases the shards and, if the map created it, the shared
// domain. The map must not be used afterwards.
func (m *Map[K, V]) Close() {
	for _, s := range m.shards {
		s.Close() // no-op per shard: the domain is shared
	}
	if m.ownDom {
		m.dom.Close()
	}
}

// ReadHandle is a per-goroutine lookup handle spanning every shard:
// one registered reader on the shared domain. Not safe for concurrent
// use; create one per reading goroutine and Close it when done.
type ReadHandle[K comparable, V any] struct {
	m *Map[K, V]
	r *rcu.Reader
}

// NewReadHandle registers a map-wide reader for lookup hot paths.
func (m *Map[K, V]) NewReadHandle() *ReadHandle[K, V] {
	return &ReadHandle[K, V]{m: m, r: m.dom.Register()}
}

// Get is the hot-path lookup: two reader-local atomic stores around a
// shard pick and a chain walk — the same cost as a single-table
// ReadHandle.
func (h *ReadHandle[K, V]) Get(k K) (V, bool) {
	hv := h.m.hash(k)
	h.r.Lock()
	v, ok := h.m.shardFor(hv).LookupInReader(hv, k)
	h.r.Unlock()
	return v, ok
}

// Contains reports presence via the handle's reader.
func (h *ReadHandle[K, V]) Contains(k K) bool {
	_, ok := h.Get(k)
	return ok
}

// Close deregisters the handle's reader.
func (h *ReadHandle[K, V]) Close() { h.r.Close() }
