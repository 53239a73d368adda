package cache

import (
	"errors"
	"fmt"
	"time"
)

// ErrNotLoaded is the per-key error a GetOrLoadMulti flight resolves
// with when the batch loader returns successfully but omits that key:
// the key is treated as not found and nothing is cached. Single-key
// GetOrLoad callers that joined such a flight receive it too.
var ErrNotLoaded = errors.New("cache: loader returned no value for key")

// multiScratch is the reusable workspace for batched reads: hashes
// plus the raw entry results from the map's batch lookup.
type multiScratch[K comparable, V any] struct {
	hs   []uint64
	ents []*entry[V]
	eoks []bool
}

func (c *Cache[K, V]) multiScratchFor(n int) *multiScratch[K, V] {
	sc, _ := c.multiPool.Get().(*multiScratch[K, V])
	if sc == nil {
		sc = &multiScratch[K, V]{}
	}
	if cap(sc.hs) < n {
		sc.hs = make([]uint64, n)
		sc.ents = make([]*entry[V], n)
		sc.eoks = make([]bool, n)
	}
	return sc
}

func (c *Cache[K, V]) putMultiScratch(sc *multiScratch[K, V]) {
	clear(sc.ents) // don't let pooled scratch pin dead entries
	c.multiPool.Put(sc)
}

// getBatchClassified is the shared batched hit path: hash every key
// once, resolve through the map's batch lookup (at most one reader
// section per touched shard), classify each result against a single
// coarse-clock read — bumping recency on hits — and fold the hit/miss
// counts into the striped counters with one add per batch. onKey
// receives each key's position, hash, value (zero on miss), and hit
// flag, in batch order.
func (c *Cache[K, V]) getBatchClassified(ks []K, onKey func(i int, h uint64, v V, hit bool)) {
	n := len(ks)
	sc := c.multiScratchFor(n)
	hs, ents, eoks := sc.hs[:n], sc.ents[:n], sc.eoks[:n]
	for i := range ks {
		hs[i] = c.hash(ks[i])
	}
	c.m.GetBatchHashed(hs, ks, ents, eoks)

	now := c.clk.Nanos()
	hits, misses := uint64(0), uint64(0)
	for i := range ks {
		e := ents[i]
		if eoks[i] && !(e.expireAt != 0 && e.expireAt <= now) {
			e.lastUsed.Store(now)
			hits++
			onKey(i, hs[i], e.val, true)
			continue
		}
		misses++
		var zero V
		onKey(i, hs[i], zero, false)
	}
	// Stripe hint from the first key's hash, like the shard layer's
	// section counter: no shared read-modify-write on the batched read
	// path (a shared sequence word would ping-pong across cores).
	stripe := int(hs[0])
	c.hits.AddN(stripe, hits)
	c.misses.AddN(stripe, misses)
	c.putMultiScratch(sc)
}

// GetMulti looks up ks[i] into vals[i] (and oks[i], if oks is
// non-nil; vals[i] is the zero value on a miss either way). It is the
// batched hit path: keys are hashed once, resolved through the map's
// batch lookup — at most one reader section per touched shard, not
// one per key — expiry is checked against a single coarse-clock read,
// and the hit/miss counters take one striped add per batch instead of
// one per key. Per-key semantics are exactly Get's (hits bump
// recency; expired entries read as misses).
func (c *Cache[K, V]) GetMulti(ks []K, vals []V, oks []bool) {
	n := len(ks)
	if len(vals) != n || (oks != nil && len(oks) != n) {
		panic("cache: GetMulti output length mismatch")
	}
	if n == 0 {
		return
	}
	c.getBatchClassified(ks, func(i int, _ uint64, v V, hit bool) {
		vals[i] = v
		if oks != nil {
			oks[i] = hit
		}
	})
}

// GetOrLoadMulti returns the live values for ks, loading the missing
// ones with a single call to load. The hit path is GetMulti; for the
// miss set, each key joins the cache's singleflight registry exactly
// as GetOrLoad does — keys another caller is already loading are
// waited on, and the remainder are claimed and passed to load as one
// miss set. Loaded values are stored with the cache's default TTL and
// cost 1.
//
// The result map holds every key that was found or loaded. A key the
// loader omits is simply absent from the result (and is not cached);
// single-key GetOrLoad callers waiting on that key receive
// ErrNotLoaded. If load itself fails, every key it was asked for
// resolves with that error, and GetOrLoadMulti returns it alongside
// whatever hits and joined results it did collect. Duplicate keys in
// ks are resolved once.
func (c *Cache[K, V]) GetOrLoadMulti(ks []K, load func(missing []K) (map[K]V, error)) (map[K]V, error) {
	return c.GetOrLoadMultiTTL(ks, c.defaultTTL, load)
}

// GetOrLoadMultiTTL is GetOrLoadMulti with an explicit TTL (<= 0 =
// never expires) for the loaded values.
func (c *Cache[K, V]) GetOrLoadMultiTTL(ks []K, ttl time.Duration, load func(missing []K) (map[K]V, error)) (map[K]V, error) {
	out := make(map[K]V, len(ks))
	if len(ks) == 0 {
		return out, nil
	}
	type miss struct {
		k K
		h uint64
	}
	var missing []miss
	c.getBatchClassified(ks, func(i int, h uint64, v V, hit bool) {
		if hit {
			if _, dup := out[ks[i]]; !dup {
				out[ks[i]] = v
			}
			return
		}
		missing = append(missing, miss{ks[i], h})
	})
	if len(missing) == 0 {
		return out, nil
	}

	// Partition the miss set: keys with a flight already in progress
	// are joined (waited on below); the rest are claimed — one new
	// flight each, all resolved by one load call.
	led := make(map[K]*flight[V], len(missing))
	var ledKeys []K
	var ledHashes []uint64
	joined := make(map[K]*flight[V])
	for _, ms := range missing {
		if _, seen := led[ms.k]; seen {
			continue
		}
		if _, seen := joined[ms.k]; seen {
			continue
		}
		fs := &c.flights[(ms.h>>24)&(flightStripes-1)]
		fs.mu.Lock()
		if fs.m == nil {
			fs.m = make(map[K]*flight[V])
		}
		if f, ok := fs.m[ms.k]; ok {
			fs.mu.Unlock()
			joined[ms.k] = f
			continue
		}
		f := &flight[V]{done: make(chan struct{})}
		fs.m[ms.k] = f
		fs.mu.Unlock()
		led[ms.k] = f
		ledKeys = append(ledKeys, ms.k)
		ledHashes = append(ledHashes, ms.h)
	}

	var loadErr error
	if len(ledKeys) > 0 {
		loadErr = c.leadMulti(ledKeys, ledHashes, led, ttl, out, load)
	}

	for k, f := range joined {
		<-f.done
		switch {
		case f.err == nil:
			out[k] = f.val
		case errors.Is(f.err, ErrNotLoaded):
			// Another leader's loader omitted it: not found, not an
			// error for this batch.
		case loadErr == nil:
			loadErr = f.err
		}
	}
	return out, loadErr
}

// leadMulti runs one batch load for the claimed keys and resolves
// their flights. Like the single-key leader, the cleanup is deferred
// so a panicking (or Goexit-ing) loader cannot strand waiters: every
// unresolved flight is failed, its registration removed, and the
// panic propagates.
func (c *Cache[K, V]) leadMulti(ledKeys []K, ledHashes []uint64, led map[K]*flight[V], ttl time.Duration, out map[K]V, load func([]K) (map[K]V, error)) (err error) {
	completed := false
	defer func() {
		r := recover()
		if !completed {
			ferr := err
			if r != nil {
				ferr = fmt.Errorf("cache: batch load panicked: %v", r)
			} else if ferr == nil {
				ferr = errors.New("cache: batch load exited without returning")
			}
			c.loadErrors.Add(1)
			for k, f := range led {
				if _, resolved := out[k]; resolved {
					continue // satisfied by the post-registration re-check
				}
				if f.err == nil {
					f.err = ferr
				}
			}
			err = ferr
		}
		for i, k := range ledKeys {
			f := led[k]
			close(f.done)
			fs := &c.flights[(ledHashes[i]>>24)&(flightStripes-1)]
			fs.mu.Lock()
			delete(fs.m, k)
			fs.mu.Unlock()
		}
		if r != nil {
			panic(r)
		}
	}()

	// Re-check now that the flights are registered: a Set (or a prior
	// leader's store) may have landed between the batch miss and the
	// registration; those keys need no backend trip.
	toLoad := ledKeys[:0:0]
	for i, k := range ledKeys {
		if v, ok := c.peek(ledHashes[i], k); ok {
			f := led[k]
			f.val = v
			out[k] = v
			continue
		}
		toLoad = append(toLoad, k)
	}

	var loaded map[K]V
	if len(toLoad) > 0 {
		if o := c.obsv; o != nil {
			t0 := time.Now()
			loaded, err = load(toLoad)
			o.CacheLoad.RecordSince(0, t0)
		} else {
			loaded, err = load(toLoad)
		}
	}
	completed = true
	if err != nil {
		c.loadErrors.Add(1)
		for _, k := range toLoad {
			led[k].err = err
		}
		return err
	}
	var at int64
	if ttl > 0 {
		at = c.clk.Nanos() + ttl.Nanoseconds()
	}
	stored := uint64(0)
	for i, k := range ledKeys {
		f := led[k]
		v, ok := loaded[k]
		if !ok {
			if _, resolved := out[k]; resolved {
				continue // satisfied by the post-registration re-check
			}
			f.err = ErrNotLoaded
			continue
		}
		f.val = v
		out[k] = v
		c.setAbs(ledHashes[i], k, v, at, 1)
		stored++
	}
	c.loads.Add(stored)
	return nil
}

// RangeChunked calls fn for every live entry until fn returns false,
// with shard.Map.RangeChunked semantics: bounded reader sections, fn
// invoked outside them (so fn may block or call back into the cache
// without extending grace periods), possible repeats (never skips) for
// shards that shrink mid-traversal. Expired entries are skipped.
func (c *Cache[K, V]) RangeChunked(chunk int, fn func(K, V) bool) {
	c.m.RangeChunked(chunk, func(k K, e *entry[V]) bool {
		if c.expired(e) {
			return true
		}
		return fn(k, e.val)
	})
}

// BatchSections exposes the underlying map's reader-section counter
// for batched gets (see shard.Map.BatchSections): a B-key GetMulti
// accounts for at most min(B, NumShards) sections.
func (c *Cache[K, V]) BatchSections() uint64 { return c.m.BatchSections() }
