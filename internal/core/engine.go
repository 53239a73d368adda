package core

// The engine seam: the bucket/chain representation of the table sits
// behind this internal interface so alternative layouts can be built
// without touching the shared machinery — the RCU domain, the writer
// stripes, the resize serializer and epoch seqlock, the auto-resize
// policy, observability, and the batch
// stripe-sort workspace all live on Table and are engine-agnostic.
//
// Two engines exist:
//
//   - "chain" (chainEngine, the default): the paper's relativistic
//     open-chaining layout — per-bucket singly linked chains, unzip
//     expansion and zip shrink that relink the SAME nodes under
//     grace-period choreography, a lock-free CAS insert fast path and
//     hint-validated replace. Its implementation is the chain*
//     methods spread across lookup.go / update.go / batch.go /
//     resize.go, exactly where it always lived.
//
//   - "flat" (flatEngine, flat.go): cache-line-contiguous fixed-size
//     cell groups per bucket with a packed 8-bit hash-tag word
//     scanned first and a chain-overflow spill, resized by
//     relativistic COPY-based per-bucket migration (flat_resize.go).
//
// Contract notes, shared by every implementation:
//
//   - lookupHashed is called INSIDE a read-side critical section of
//     t.dom (Get, ReadHandle, QSBRHandle, GetBatch all provide one);
//     it must be synchronization-free on the read side.
//   - The write methods own their locking (stripes via t.lockHash and
//     friends) and their auto-resize triggers, mirroring the public
//     semantics documented on the Table methods that dispatch to
//     them.
//   - expandStep/shrinkStep are called with t.resizeMu held and
//     perform one factor-of-two step including all grace periods;
//     shrinkStep must refuse below t.policy.MinBuckets.
//   - bucketCount is the published bucket count (the policy layer
//     sizes resizes from it);
//     migrationFloor is 0 when no migration is in flight, else the
//     bucket granularity writers' stripes must not exceed (the chain
//     engine's unzip parent count; the flat engine's migration unit
//     count), checked by checkStripeInvariants.
type engine[K comparable, V any] interface {
	name() string

	// Read side (inside a reader section of t.dom).
	lookupHashed(h uint64, k K) (V, bool)

	// snapshot returns the current layout as traversal units
	// (scan.go); called, and the view used, inside one reader section
	// of t.dom.
	snapshot() unitView[K, V]
	// maxProbe owns its reader section.
	maxProbe() int

	// Point writes (own their stripe locking and resize triggers).
	setHashed(h uint64, k K, v V) bool
	swapHashed(h uint64, k K, v V) (V, bool)
	insertHashed(h uint64, k K, v V) bool
	replaceHashed(h uint64, k K, v V) bool
	updateHashed(h uint64, k K, fn func(cur V, present bool) (V, bool)) (V, bool, bool)
	compareAndDeleteHashed(h uint64, k K, match func(V) bool) (V, bool)
	compareAndSwapValueHashed(h uint64, k K, match func(V) bool, v V) (swapped, present bool)
	move(oldKey, newKey K) bool

	// Batched writes (keys pre-hashed; lengths already validated).
	setBatchHashed(hs []uint64, ks []K, vs []V) int
	deleteBatchHashed(hs []uint64, ks []K) int

	// Geometry and resize (resizeMu held for the step methods).
	bucketCount() uint64
	migrationFloor() uint64
	expandStep()
	shrinkStep()

	// introspect reports layout telemetry (occupancy, spill, migration
	// progress — see EngineIntro). Bounded cost regardless of table
	// size: the flat engine samples at most flatIntroSampleGroups
	// groups, the chain engine reads two counters.
	introspect() EngineIntro

	// Structural checking (tests and -tags=invariants builds).
	checkInvariants() error
	checkInvariantsLive() error
}

// Engine name constants accepted by WithEngine.
const (
	// EngineChain is the default: the paper's relativistic chain
	// layout with unzip/zip resizing.
	EngineChain = "chain"
	// EngineFlat is the cache-line-contiguous cell-group layout with
	// copy-based migration (see flat.go).
	EngineFlat = "flat"
)

// WithEngine selects the table's bucket representation: EngineChain
// (the default, also selected by "") or EngineFlat. The public API,
// the striped writer model, and the synchronization-free read side
// are identical either way; the engines differ in memory layout,
// resize choreography, and which writes have lock-free fast paths
// (the flat engine has none — see flat.go's value-plane note).
// Unknown names panic at construction.
func WithEngine(name string) Option {
	return func(c *config) { c.engine = name }
}

// Engine reports which bucket representation the table runs
// (EngineChain or EngineFlat).
func (t *Table[K, V]) Engine() string { return t.eng.name() }

// newEngine constructs the configured engine and its initial storage.
func newEngine[K comparable, V any](t *Table[K, V], cfg *config) engine[K, V] {
	switch cfg.engine {
	case "", EngineChain:
		t.ht.Store(newBuckets[K, V](cfg.initial))
		return &chainEngine[K, V]{t: t}
	case EngineFlat:
		e := &flatEngine[K, V]{t: t}
		e.view.Store(newFlatView[K, V](cfg.initial, nil))
		return e
	default:
		panic("core: unknown engine " + cfg.engine)
	}
}

// chainEngine adapts the table's original relativistic chain
// implementation — the chain* methods in lookup.go, update.go,
// batch.go, resize.go, stats.go, and invariant.go — to the engine
// interface. Pure delegation: the chain code itself is unchanged by
// the engine refactor (its lock-free read path, CAS write fast path,
// and unzip resize are load-bearing and benchmarked).
type chainEngine[K comparable, V any] struct{ t *Table[K, V] }

func (e *chainEngine[K, V]) name() string { return EngineChain }

func (e *chainEngine[K, V]) lookupHashed(h uint64, k K) (V, bool) { return e.t.chainLookupHashed(h, k) }
func (e *chainEngine[K, V]) snapshot() unitView[K, V]             { return e.t.ht.Load() }
func (e *chainEngine[K, V]) maxProbe() int                        { return e.t.chainMaxProbe() }

func (e *chainEngine[K, V]) setHashed(h uint64, k K, v V) bool { return e.t.chainSetHashed(h, k, v) }
func (e *chainEngine[K, V]) swapHashed(h uint64, k K, v V) (V, bool) {
	return e.t.chainSwapHashed(h, k, v)
}
func (e *chainEngine[K, V]) insertHashed(h uint64, k K, v V) bool {
	return e.t.chainInsertHashed(h, k, v)
}
func (e *chainEngine[K, V]) replaceHashed(h uint64, k K, v V) bool {
	return e.t.chainReplaceHashed(h, k, v)
}
func (e *chainEngine[K, V]) updateHashed(h uint64, k K, fn func(V, bool) (V, bool)) (V, bool, bool) {
	return e.t.chainUpdateHashed(h, k, fn)
}
func (e *chainEngine[K, V]) compareAndDeleteHashed(h uint64, k K, match func(V) bool) (V, bool) {
	return e.t.chainCompareAndDeleteHashed(h, k, match)
}
func (e *chainEngine[K, V]) compareAndSwapValueHashed(h uint64, k K, match func(V) bool, v V) (bool, bool) {
	return e.t.chainCompareAndSwapValueHashed(h, k, match, v)
}
func (e *chainEngine[K, V]) move(oldKey, newKey K) bool { return e.t.chainMove(oldKey, newKey) }

func (e *chainEngine[K, V]) setBatchHashed(hs []uint64, ks []K, vs []V) int {
	return e.t.chainSetBatchHashed(hs, ks, vs)
}
func (e *chainEngine[K, V]) deleteBatchHashed(hs []uint64, ks []K) int {
	return e.t.chainDeleteBatchHashed(hs, ks)
}

func (e *chainEngine[K, V]) bucketCount() uint64    { return e.t.ht.Load().size() }
func (e *chainEngine[K, V]) migrationFloor() uint64 { return e.t.unzipParent.Load() }
func (e *chainEngine[K, V]) expandStep()            { e.t.chainExpandStep() }
func (e *chainEngine[K, V]) shrinkStep()            { e.t.chainShrinkStep() }

// introspect maps the chain engine's unzip state onto the shared
// migration-progress vocabulary: units are the expansion's parent
// chains, done is parents already fully unzipped. The flat occupancy
// fields stay zero — chains have no fixed-cell groups to fill.
func (e *chainEngine[K, V]) introspect() EngineIntro {
	var in EngineIntro
	if units := e.t.unzipParent.Load(); units > 0 {
		in.MigrationUnits = units
		if backlog := e.t.unzipBacklog.Load(); backlog > 0 && uint64(backlog) <= units {
			in.MigrationDone = units - uint64(backlog)
		} else if backlog <= 0 {
			in.MigrationDone = units
		}
	}
	return in
}

func (e *chainEngine[K, V]) checkInvariants() error     { return e.t.chainCheckInvariants() }
func (e *chainEngine[K, V]) checkInvariantsLive() error { return e.t.chainCheckInvariantsLive() }
