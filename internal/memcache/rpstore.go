package memcache

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"rphash/internal/cache"
	"rphash/internal/clock"
	"rphash/internal/core"
	"rphash/internal/obs"
)

// RPStore is the paper's memcached patch: GETs are relativistic
// lookups on the resizable hash table — no lock, no shared-counter
// bump, no retry — while mutations ride the table's per-key writer
// stripes (pure inserts even skip those, publishing lock-free via the
// table's CAS fast path) and retire replaced items through grace
// periods. The table auto-resizes with load, so the unzip/zip
// algorithms run underneath live traffic.
//
// There is no store-wide mutex anywhere in the command path. The
// read-modify-write commands (Add, Replace, CAS, Touch, Append,
// Prepend, IncrDecr) each run as one cache.Update: examine, decide,
// and publish atomically under the key's stripe. CAS-id sequencing
// lives in the value plane — ids are drawn from one atomic counter
// and attached to the item inside the same Update, so a `cas` command
// compares against exactly the item it would displace. Plain Set
// draws its id and publishes with no lock at all; two Sets racing on
// one key may therefore publish ids out of arrival order (last
// writer wins either way, and ids stay unique — memcached promises
// nothing stronger for concurrent unconditioned stores).
//
// Expiry, sampled-LRU eviction, byte accounting, and hit/miss stats
// all live in internal/cache (the reusable subsystem this engine
// seeded); RPStore contributes only the memcached semantics on top:
// CAS sequencing, conditional stores, and value edits. See DESIGN.md
// for what is simplified relative to stock memcached.
type RPStore struct {
	c      *cache.Cache[string, *Item]
	clk    *clock.Clock
	engine string // stats name: "rp" (chain) or "rp-flat"

	casSeq  atomic.Uint64
	sets    atomic.Uint64
	deletes atomic.Uint64

	obsv *obs.Observer
	wd   *obs.Watchdog
}

// StoreOption configures NewRPStore.
type StoreOption func(*rpConfig)

type rpConfig struct {
	obsv   *obs.Observer
	engine string
}

// WithStoreObserver threads an observability hub through the store
// into the cache, shard map, tables, and RCU domain underneath: grace
// waits, stripe waits, load latency, and resize lifecycle events all
// land in o. nil (the default) leaves every layer uninstrumented.
func WithStoreObserver(o *obs.Observer) StoreOption {
	return func(cfg *rpConfig) { cfg.obsv = o }
}

// WithStoreEngine selects the bucket engine for the tables underneath
// (core.EngineChain or core.EngineFlat). The store's protocol
// semantics are identical either way; only the per-bucket layout and
// resize mechanism change. Empty (the default) keeps the chain engine.
func WithStoreEngine(name string) StoreOption {
	return func(cfg *rpConfig) { cfg.engine = name }
}

// rpSweepInterval is the cadence of the cache's incremental expiry
// sweeper inside RPStore (each tick examines a fixed budget of one
// shard's entries and resumes there on that shard's next turn; a full
// pass takes about 5 s per 100 000 items). RPStore owns its sweeping
// entirely: it deliberately does NOT implement the server's `sweeper`
// interface, so the server's ticker never double-drives reclamation —
// expired items are reclaimed by exactly one mechanism (plus the
// usual lazy paths: overwrites and eviction sampling).
const rpSweepInterval = 100 * time.Millisecond

// NewRPStore builds the relativistic engine. maxBytes <= 0 disables
// eviction.
//
// The engine is backed by cache.Cache over shard.Map — relativistic
// tables behind one shared RCU domain, each with striped per-bucket
// writer locks — so table-level writers to different chains never
// contend while every GET stays a single lock-free chain walk. No
// command serializes wider than its own key: conditional commands
// run as one cache.Update under the key's stripe, and plain Set and
// Delete take no store-level lock at all (see the RPStore type
// comment for the CAS-id ordering this implies). Expired items are
// reclaimed by the cache's own incremental background sweeper (see
// rpSweepInterval); the server's sweep ticker does not apply to this
// store.
func NewRPStore(maxBytes int64, opts ...StoreOption) *RPStore {
	var cfg rpConfig
	for _, o := range opts {
		o(&cfg)
	}
	clk := clock.New(clock.DefaultGranularity)
	copts := []cache.Option{
		cache.WithClock(clk),
		cache.WithMaxCost(maxBytes),
		cache.WithInitialBuckets(1024),
		cache.WithPolicy(core.Policy{MaxLoad: 2, MinLoad: 0.125, MinBuckets: 1024}),
		cache.WithSweepInterval(rpSweepInterval),
	}
	if cfg.obsv != nil {
		copts = append(copts, cache.WithObserver(cfg.obsv))
	}
	if cfg.engine != "" {
		copts = append(copts, cache.WithEngine(cfg.engine))
	}
	name := "rp"
	if cfg.engine == core.EngineFlat {
		name = "rp-flat"
	}
	c := cache.NewString[*Item](copts...)
	return &RPStore{c: c, clk: clk, engine: name, obsv: cfg.obsv}
}

// Observer returns the store's observability hub (nil when not
// configured). The server reads it to time command dispatch.
func (s *RPStore) Observer() *obs.Observer { return s.obsv }

// Get is the lock-free fast path. Expired items are treated as misses
// by the cache; their removal is left to writers and the sweeper
// (lazy expiry), keeping the read path pure.
func (s *RPStore) Get(key string) (*Item, bool) { return s.c.Get(key) }

// NewGetter returns a per-goroutine lock-free Get using a registered
// read handle — the hot path connection handlers use.
func (s *RPStore) NewGetter() (func(key string) (*Item, bool), func()) {
	return s.c.NewGetter()
}

// GetMulti resolves all keys through the cache's batch path: keys are
// hashed once, grouped by shard, and looked up inside at most one
// reader section per touched shard — a multi-key `get` enters at most
// NumShards reader sections instead of one per key. out[i] is nil for
// misses (and for expired items); len(out) must equal len(keys).
func (s *RPStore) GetMulti(keys []string, out []*Item) {
	s.c.GetMulti(keys, out, nil)
}

// itemExpiry converts an Item's unix-seconds expiry to the cache's
// absolute form (zero time = never).
func itemExpiry(it *Item) time.Time {
	if it.ExpireAt == 0 {
		return time.Time{}
	}
	return time.Unix(it.ExpireAt, 0)
}

// Set stores unconditionally, with no lock at the store level: the
// CAS id comes off the atomic sequence and the cache publishes the
// item (pure inserts ride the table's lock-free fast path; replaces
// ride the key's stripe).
func (s *RPStore) Set(it *Item) {
	it.CAS = s.casSeq.Add(1)
	s.c.SetExpiresAt(it.Key, it, itemExpiry(it), it.Size())
	s.sets.Add(1)
}

// update runs one conditional command as a single cache.Update: fn
// examines the live item (nil if absent or expired) and returns the
// item to store, or nil to leave the store untouched. The examine and
// the publish are atomic under the key's writer stripe; the CAS id is
// assigned inside the same critical section, so a concurrent `cas`
// compares against exactly the item it would displace.
func (s *RPStore) update(key string, fn func(cur *Item) *Item) bool {
	stored := s.c.Update(key, func(cur *Item, live bool) (*Item, time.Time, int64, bool) {
		if !live {
			cur = nil
		}
		next := fn(cur)
		if next == nil {
			return nil, time.Time{}, 0, false
		}
		next.CAS = s.casSeq.Add(1)
		return next, itemExpiry(next), next.Size(), true
	})
	if stored {
		s.sets.Add(1)
	}
	return stored
}

// Add stores only if absent or expired.
func (s *RPStore) Add(it *Item) bool {
	return s.update(it.Key, func(cur *Item) *Item {
		if cur != nil {
			return nil
		}
		return it
	})
}

// Replace stores only if present and live.
func (s *RPStore) Replace(it *Item) bool {
	return s.update(it.Key, func(cur *Item) *Item {
		if cur == nil {
			return nil
		}
		return it
	})
}

// CompareAndSwap stores only when cas matches the live item.
func (s *RPStore) CompareAndSwap(it *Item, cas uint64) error {
	var err error
	s.update(it.Key, func(cur *Item) *Item {
		switch {
		case cur == nil:
			err = ErrNotFound
			return nil
		case cur.CAS != cas:
			err = ErrCASMismatch
			return nil
		}
		return it
	})
	return err
}

// Delete removes the key.
func (s *RPStore) Delete(key string) bool {
	if s.c.Delete(key) {
		s.deletes.Add(1)
		return true
	}
	return false
}

// Touch replaces the item with one bearing the new expiry (items are
// immutable; readers see old or new).
func (s *RPStore) Touch(key string, expireAt int64) bool {
	return s.update(key, func(cur *Item) *Item {
		if cur == nil {
			return nil
		}
		return NewItem(cur.Key, cur.Flags, cur.Value, expireAt)
	})
}

// Append concatenates after the existing value.
func (s *RPStore) Append(key string, data []byte) bool { return s.concat(key, data, false) }

// Prepend concatenates before the existing value.
func (s *RPStore) Prepend(key string, data []byte) bool { return s.concat(key, data, true) }

func (s *RPStore) concat(key string, data []byte, front bool) bool {
	return s.update(key, func(cur *Item) *Item {
		if cur == nil {
			return nil
		}
		buf := make([]byte, 0, len(cur.Value)+len(data))
		if front {
			buf = append(append(buf, data...), cur.Value...)
		} else {
			buf = append(append(buf, cur.Value...), data...)
		}
		return NewItem(cur.Key, cur.Flags, buf, cur.ExpireAt)
	})
}

// IncrDecr adjusts a decimal value by full-item replacement. The
// parse-compute-store sequence runs inside one cache.Update, so two
// concurrent incr commands on one key serialize under its stripe and
// neither adjustment is lost.
func (s *RPStore) IncrDecr(key string, delta uint64, decr bool) (uint64, error) {
	var next uint64
	err := ErrNotFound
	s.update(key, func(cur *Item) *Item {
		if cur == nil {
			return nil
		}
		val, perr := strconv.ParseUint(string(cur.Value), 10, 64)
		if perr != nil {
			err = ErrNotNumeric
			return nil
		}
		if decr {
			if delta > val {
				next = 0
			} else {
				next = val - delta
			}
		} else {
			next = val + delta
		}
		err = nil
		return NewItem(cur.Key, cur.Flags, []byte(strconv.FormatUint(next, 10)), cur.ExpireAt)
	})
	if err != nil {
		return 0, err
	}
	return next, nil
}

// FlushAll drops every item (see LockStore.FlushAll).
func (s *RPStore) FlushAll(int64) { s.c.Purge() }

// Len returns the item count (including expired, unswept items —
// they still occupy memory, matching memcached's curr_items).
func (s *RPStore) Len() int { return s.c.Len() }

// Bytes returns accounted bytes.
func (s *RPStore) Bytes() int64 { return s.c.Cost() }

// Stats snapshots counters. It reads the cache's cheap counter
// snapshot (no bucket walk), so a stats poll costs O(1) regardless of
// table size; Buckets comes from the map's own counter.
func (s *RPStore) Stats() StoreStats {
	cs := s.c.Counters()
	ms := s.c.MapCounters()
	st := StoreStats{
		Engine:         s.engine,
		CurrItems:      int64(cs.Entries),
		Bytes:          cs.Cost,
		GetHits:        cs.Hits,
		GetMisses:      cs.Misses,
		Sets:           s.sets.Load(),
		Deletes:        s.deletes.Load(),
		Evictions:      cs.Evictions,
		Expired:        cs.Expirations,
		Buckets:        s.c.Buckets(),
		CASFastInserts: ms.CASFastInserts,
		CASFallbacks:   ms.CASFallbacks,
		CASUndos:       ms.CASUndos,
		ValueCASSwaps:  ms.ValueCASSwaps,

		UnzipBacklog:      ms.UnzipBacklog,
		MigrationUnits:    ms.MigrationUnits,
		MigrationDone:     ms.MigrationDone,
		MigrationRate:     ms.MigrationRate,
		FlatSampledGroups: ms.FlatSampledGroups,
		FlatSpilledGroups: ms.FlatSpilledGroups,
		FlatSpillEntries:  ms.FlatSpillEntries,
		FlatMaxSpill:      ms.FlatMaxSpill,
		FlatSpillRatio:    ms.FlatSpillRatio(),
	}
	if st.FlatSampledGroups > 0 {
		st.FlatOccupancy = append([]uint64(nil), ms.FlatOccupancy[:]...)
	}
	return st
}

// RegisterMetrics publishes the store's full metric surface into reg:
// cache hit/miss/load/eviction counters, byte and item gauges, the
// map's structural counters (buckets, stripe-lock telemetry, resize
// and unzip totals), RCU domain counters, and — when the store was
// built WithStoreObserver — every latency histogram and the
// event-ring depth. All closures read O(1)/O(stripes) counter
// snapshots, so scraping never walks buckets.
func (s *RPStore) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("rphash_cache_hits_total", "Live-entry GET hits.",
		func() uint64 { return s.c.Counters().Hits })
	reg.Counter("rphash_cache_misses_total", "Absent or expired GET misses.",
		func() uint64 { return s.c.Counters().Misses })
	reg.Counter("rphash_cache_evictions_total", "Live entries evicted for capacity.",
		func() uint64 { return s.c.Counters().Evictions })
	reg.Counter("rphash_cache_expirations_total", "Expired entries reclaimed.",
		func() uint64 { return s.c.Counters().Expirations })
	reg.Counter("rphash_store_sets_total", "Store commands applied (set/add/replace/cas/...).",
		func() uint64 { return s.sets.Load() })
	reg.Counter("rphash_store_deletes_total", "Successful deletes.",
		func() uint64 { return s.deletes.Load() })
	reg.Gauge("rphash_store_bytes", "Accounted value bytes.",
		func() float64 { return float64(s.c.Cost()) })
	reg.Gauge("rphash_store_items", "Current item count (incl. unswept expired).",
		func() float64 { return float64(s.c.Len()) })

	reg.Gauge("rphash_map_buckets", "Hash buckets across all shards.",
		func() float64 { return float64(s.c.Buckets()) })
	reg.Gauge("rphash_map_load_factor", "Entries per bucket across all shards.",
		func() float64 { return s.c.MapCounters().LoadFactor })
	reg.Counter("rphash_stripe_acquires_total", "Writer stripe-lock acquisitions.",
		func() uint64 { return s.c.MapCounters().StripeAcquires })
	reg.Counter("rphash_stripe_contended_total", "Writer stripe-lock acquisitions that blocked.",
		func() uint64 { return s.c.MapCounters().StripeContended })
	reg.Counter("rphash_map_expands_total", "Table expansions (unzip).",
		func() uint64 { return s.c.MapCounters().Expands })
	reg.Counter("rphash_map_shrinks_total", "Table shrinks (zip).",
		func() uint64 { return s.c.MapCounters().Shrinks })
	reg.Counter("rphash_unzip_passes_total", "Grace-period-separated unzip passes.",
		func() uint64 { return s.c.MapCounters().UnzipPasses })
	reg.Counter("rphash_unzip_cuts_total", "Individual unzip pointer cuts.",
		func() uint64 { return s.c.MapCounters().UnzipCuts })
	reg.Counter("rphash_cas_fast_inserts_total", "Pure inserts published lock-free by head CAS.",
		func() uint64 { return s.c.MapCounters().CASFastInserts })
	reg.Counter("rphash_cas_fallbacks_total", "Fast-path inserts that fell back to the striped slow path.",
		func() uint64 { return s.c.MapCounters().CASFallbacks })
	reg.Counter("rphash_cas_undos_total", "Fast-path inserts rolled back after losing to a resize capture.",
		func() uint64 { return s.c.MapCounters().CASUndos })
	reg.Counter("rphash_value_cas_total", "Successful lock-free value compare-and-publishes.",
		func() uint64 { return s.c.MapCounters().ValueCASSwaps })

	reg.Gauge("rphash_unzip_backlog", "Active parent buckets in the in-flight unzip (0 when idle).",
		func() float64 { return float64(s.c.MapCounters().UnzipBacklog) })
	reg.Gauge("rphash_migration_units", "Units in the in-flight resize migration (0 when idle).",
		func() float64 { return float64(s.c.MapCounters().MigrationUnits) })
	reg.Gauge("rphash_migration_done", "Units already migrated by the in-flight resize.",
		func() float64 { return float64(s.c.MapCounters().MigrationDone) })
	reg.Gauge("rphash_migration_progress", "Fraction of the in-flight migration completed (0..1).",
		func() float64 { return s.c.MapCounters().MigrationProgress() })
	reg.Gauge("rphash_migration_rate_units_per_s", "Migration throughput of the in-flight resize.",
		func() float64 { return s.c.MapCounters().MigrationRate })
	reg.Gauge("rphash_flat_sampled_groups", "Groups sampled by the flat engine's occupancy scan (0 on chain).",
		func() float64 { return float64(s.c.MapCounters().FlatSampledGroups) })
	reg.Gauge("rphash_flat_spilled_groups", "Sampled flat groups with a populated overflow chain.",
		func() float64 { return float64(s.c.MapCounters().FlatSpilledGroups) })
	reg.Gauge("rphash_flat_spill_entries", "Overflow entries behind the sampled flat groups.",
		func() float64 { return float64(s.c.MapCounters().FlatSpillEntries) })
	reg.Gauge("rphash_flat_max_spill", "Longest overflow chain behind a sampled flat group.",
		func() float64 { return float64(s.c.MapCounters().FlatMaxSpill) })
	reg.Gauge("rphash_flat_spill_ratio", "Spilled/sampled flat-group ratio.",
		func() float64 { return s.c.MapCounters().FlatSpillRatio() })
	// The registry has no label support, so the 9-bin occupancy
	// histogram (0..8 cells used) becomes 9 named gauges.
	var zeroStats core.Stats
	for i := range zeroStats.FlatOccupancy {
		i := i
		reg.Gauge(fmt.Sprintf("rphash_flat_occupancy_%d", i),
			fmt.Sprintf("Sampled flat groups with exactly %d of 8 tag cells occupied.", i),
			func() float64 { return float64(s.c.MapCounters().FlatOccupancy[i]) })
	}

	reg.Counter("rphash_rcu_grace_periods_total", "Completed Synchronize calls.",
		func() uint64 { return s.c.Domain().Stats().GracePeriods })
	reg.Counter("rphash_rcu_deferred_total", "Callbacks queued via Defer.",
		func() uint64 { return s.c.Domain().Stats().Deferred })
	reg.Counter("rphash_rcu_deferred_ran_total", "Deferred callbacks executed.",
		func() uint64 { return s.c.Domain().Stats().DeferredRan })
	reg.Gauge("rphash_rcu_readers", "Currently registered delimited readers.",
		func() float64 { return float64(s.c.Domain().Stats().Readers) })

	s.obsv.Register(reg)
}

// StartWatchdog attaches the anomaly watchdog to the store's cache,
// sampling grace-period progress, stripe contention, resize backlog,
// and evictions each cfg.Interval. A nil cfg.Clock inherits the
// store's coarse clock; detections land in the store's observer ring
// (when configured) and, with a non-nil reg, in per-class trip
// counters. The store stops the watchdog in Close.
func (s *RPStore) StartWatchdog(reg *obs.Registry, cfg obs.WatchdogConfig) *obs.Watchdog {
	s.wd = s.c.StartWatchdog(reg, cfg)
	return s.wd
}

// Close stops the watchdog (when started), releases the cache
// (stopping its background sweeper and RCU domain), and stops the
// coarse clock's ticker goroutine.
func (s *RPStore) Close() {
	if s.wd != nil {
		s.wd.Stop()
	}
	s.c.Close()
	s.clk.Stop()
}
