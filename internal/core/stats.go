package core

import (
	"fmt"
	"sync/atomic"
	"time"
)

// writeCounters is everything a point write adds to, on one cache line
// shared with nothing every operation reads (ht, resizeEpoch,
// unzipParent, policy, obsv). It is one line long and allocated on its
// own: a 64-byte heap object is 64-byte aligned, a field of Table
// (behind the allocator's 8-byte header) is not. An insert adds to
// count and to one of inserts (striped path, flat engine) or
// casFastInserts (lock-free path); Stats.Inserts is their sum.
type writeCounters struct {
	count          atomic.Int64
	inserts        atomic.Uint64
	deletes        atomic.Uint64
	casFastInserts atomic.Uint64
	_              [stripeCacheLine - 4*8]byte
}

// tableStats holds the counters off the per-write path.
type tableStats struct {
	moves       atomic.Uint64
	expands     atomic.Uint64
	shrinks     atomic.Uint64
	unzipPasses atomic.Uint64
	unzipCuts   atomic.Uint64
	autoGrows   atomic.Uint64
	autoShrinks atomic.Uint64

	// CAS write fast-path telemetry (update.go; inserts committed
	// lock-free are writeCounters.casFastInserts). casFallbacks counts
	// fast-path attempts that declined to the striped slow path (epoch
	// moved, unzip window, contention budget, or an undo); casUndos
	// counts published-then-dropped nodes recovery had to roll back (a
	// strict subset of the fallbacks); valueCASSwaps counts successful
	// lock-free value publishes (CompareAndSwapValue).
	casFallbacks  atomic.Uint64
	casUndos      atomic.Uint64
	valueCASSwaps atomic.Uint64
}

// Stats is a point-in-time snapshot of table metrics.
type Stats struct {
	Len     int
	Buckets int
	// Stripes is the physical writer-lock stripe count (effective =
	// min(Stripes, Buckets)). In aggregated Map stats it is the TOTAL
	// across shards — the map's overall writer parallelism — with the
	// per-table value in MapStats.PerShard.
	Stripes int
	// EffectiveStripes is the stripe count writers currently hash
	// across: min(Stripes, Buckets), pinned at parent granularity
	// mid-unzip. Aggregated Map stats sum it like Stripes.
	EffectiveStripes int
	// StripeAcquires / StripeContended are the cumulative writer
	// stripe-lock telemetry (total acquisitions; those that had to
	// block).
	StripeAcquires  uint64
	StripeContended uint64
	LoadFactor      float64
	MaxChain        int
	Inserts         uint64
	Deletes         uint64
	Moves           uint64
	Expands         uint64
	Shrinks         uint64
	UnzipPasses     uint64 // grace-period-separated passes across all expands
	UnzipCuts       uint64 // individual pointer cuts across all expands
	AutoGrows       uint64
	AutoShrinks     uint64
	// CASFastInserts / CASFallbacks / CASUndos are the lock-free
	// insert fast path's hit, decline, and rollback counters;
	// ValueCASSwaps counts successful lock-free value publishes. See
	// tableStats for exact semantics.
	CASFastInserts uint64
	CASFallbacks   uint64
	CASUndos       uint64
	ValueCASSwaps  uint64

	// UnzipBacklog is the in-flight resize's remaining migration work
	// (parent chains still zipped for the chain engine, units not yet
	// copied for the flat engine); 0 when no resize is running. A
	// gauge, not a counter: aggregation sums the instantaneous values.
	UnzipBacklog int64

	// MigrationUnits / MigrationDone describe the in-flight bucket
	// migration — unzip parents (chain) or copy units (flat) — both 0
	// when idle. MigrationRate is the migration's observed progress in
	// units per second since the resize step began (0 when idle or too
	// young to measure).
	MigrationUnits uint64
	MigrationDone  uint64
	MigrationRate  float64

	// Flat-engine layout telemetry, all zero under the chain engine.
	// FlatOccupancy[i] counts sampled groups with exactly i occupied
	// inline cells (at most FlatIntroSampleGroups groups are scanned,
	// spread across the array); FlatSpilledGroups / FlatSpillEntries
	// count sampled groups with a non-empty overflow chain and their
	// total chained entries; FlatMaxSpill is the longest sampled
	// chain.
	FlatSampledGroups uint64
	FlatOccupancy     [flatGroupCells + 1]uint64
	FlatSpilledGroups uint64
	FlatSpillEntries  uint64
	FlatMaxSpill      int
}

// FlatSpillRatio is the fraction of sampled flat groups whose inline
// cells overflowed into a spill chain (0 when unsampled or chain
// engine).
func (s Stats) FlatSpillRatio() float64 {
	if s.FlatSampledGroups == 0 {
		return 0
	}
	return float64(s.FlatSpilledGroups) / float64(s.FlatSampledGroups)
}

// MigrationProgress is MigrationDone/MigrationUnits in [0,1], or 0
// when no migration is in flight.
func (s Stats) MigrationProgress() float64 {
	if s.MigrationUnits == 0 {
		return 0
	}
	return float64(s.MigrationDone) / float64(s.MigrationUnits)
}

// EngineIntro is the engine seam's layout-telemetry report (see
// engine.introspect); its fields land verbatim in Stats.
type EngineIntro struct {
	MigrationUnits    uint64
	MigrationDone     uint64
	FlatSampledGroups uint64
	FlatOccupancy     [flatGroupCells + 1]uint64
	FlatSpilledGroups uint64
	FlatSpillEntries  uint64
	FlatMaxSpill      int
}

// FlatIntroSampleGroups bounds the flat engine's introspection scan:
// tables at or under this many groups are scanned exactly; larger
// tables are strided so introspection stays O(1) in table size (the
// CounterStats contract metrics scrapes rely on).
const FlatIntroSampleGroups = 1024

// introspect samples the flat layout inside one read-side section:
// per-group inline occupancy (from the tag word alone), spill-chain
// presence and length, and copy-migration progress when a resize is
// in flight.
func (e *flatEngine[K, V]) introspect() EngineIntro {
	var in EngineIntro
	e.t.dom.Read(func() {
		v := e.view.Load()
		n := v.mask + 1
		sample := n
		stride := uint64(1)
		if sample > FlatIntroSampleGroups {
			sample = FlatIntroSampleGroups
			stride = n / sample
		}
		for i := uint64(0); i < sample; i++ {
			g := &v.groups[i*stride]
			tags := g.tags.Load()
			occ := 0
			for b := 0; b < flatGroupCells; b++ {
				if byte(tags>>(8*uint(b))) != 0 {
					occ++
				}
			}
			in.FlatOccupancy[occ]++
			sp := 0
			for nd := g.overflow.Load(); nd != nil; nd = nd.next.Load() {
				sp++
			}
			if sp > 0 {
				in.FlatSpilledGroups++
				in.FlatSpillEntries += uint64(sp)
				if sp > in.FlatMaxSpill {
					in.FlatMaxSpill = sp
				}
			}
		}
		in.FlatSampledGroups = sample
		if v.prev != nil {
			in.MigrationUnits = v.unitMask + 1
			in.MigrationDone = v.done.Load()
		}
	})
	return in
}

// Stats gathers a snapshot. MaxChain walks every bucket inside one
// read-side section; on huge tables prefer CounterStats (the metrics
// export plane scrapes through it) or sampling via Buckets/Len. Under
// the flat engine MaxChain reports the longest per-bucket probe
// (occupied cells plus overflow-chain length).
func (t *Table[K, V]) Stats() Stats {
	s := t.CounterStats()
	if p := t.eng.maxProbe(); p > s.MaxChain {
		s.MaxChain = p
	}
	return s
}

// chainMaxProbe is the chain engine's longest-chain walk.
func (t *Table[K, V]) chainMaxProbe() int {
	maxLen := 0
	t.dom.Read(func() {
		ht := t.ht.Load()
		for i := range ht.slot {
			l := 0
			for n := ht.slot[i].Load(); n != nil; n = n.next.Load() {
				l++
			}
			if l > maxLen {
				maxLen = l
			}
		}
	})
	return maxLen
}

// CounterStats is Stats minus the MaxChain bucket walk: a pure
// counter snapshot whose cost is O(stripes), independent of table
// size, so scrape endpoints can poll it freely. MaxChain is left 0.
func (t *Table[K, V]) CounterStats() Stats {
	acq, con := t.ContentionCounters()
	s := Stats{
		Len:              t.Len(),
		Buckets:          t.Buckets(),
		Stripes:          t.Stripes(),
		EffectiveStripes: t.EffectiveStripes(),
		StripeAcquires:   acq,
		StripeContended:  con,
		Deletes:          t.wc.deletes.Load(),
		Moves:            t.stats.moves.Load(),
		Expands:          t.stats.expands.Load(),
		Shrinks:          t.stats.shrinks.Load(),
		UnzipPasses:      t.stats.unzipPasses.Load(),
		UnzipCuts:        t.stats.unzipCuts.Load(),
		AutoGrows:        t.stats.autoGrows.Load(),
		AutoShrinks:      t.stats.autoShrinks.Load(),
		CASFastInserts:   t.wc.casFastInserts.Load(),
		CASFallbacks:     t.stats.casFallbacks.Load(),
		CASUndos:         t.stats.casUndos.Load(),
		ValueCASSwaps:    t.stats.valueCASSwaps.Load(),
		UnzipBacklog:     t.unzipBacklog.Load(),
	}
	s.Inserts = t.wc.inserts.Load() + s.CASFastInserts
	in := t.eng.introspect()
	s.MigrationUnits = in.MigrationUnits
	s.MigrationDone = in.MigrationDone
	s.FlatSampledGroups = in.FlatSampledGroups
	s.FlatOccupancy = in.FlatOccupancy
	s.FlatSpilledGroups = in.FlatSpilledGroups
	s.FlatSpillEntries = in.FlatSpillEntries
	s.FlatMaxSpill = in.FlatMaxSpill
	if s.MigrationUnits > 0 {
		if start := t.migrateStartNS.Load(); start > 0 {
			if el := time.Now().UnixNano() - start; el > 0 {
				s.MigrationRate = float64(s.MigrationDone) * float64(time.Second) / float64(el)
			}
		}
	}
	if s.Buckets > 0 {
		s.LoadFactor = float64(s.Len) / float64(s.Buckets)
	}
	return s
}

// String renders the headline numbers.
func (s Stats) String() string {
	return fmt.Sprintf("len=%d buckets=%d load=%.2f maxchain=%d expands=%d shrinks=%d unzip(passes=%d cuts=%d)",
		s.Len, s.Buckets, s.LoadFactor, s.MaxChain, s.Expands, s.Shrinks, s.UnzipPasses, s.UnzipCuts)
}
