// Command memcached runs the mini-memcached server with a selectable
// storage engine:
//
//	memcached -addr :11211 -engine rp       # relativistic chains (lock-free GET)
//	memcached -addr :11211 -engine rp-flat  # relativistic flat cell groups
//	memcached -addr :11211 -engine lock     # stock-style global cache lock
//
// The text protocol subset implemented: get/gets, set/add/replace/
// append/prepend/cas, delete, incr/decr, touch, flush_all, stats,
// version, verbosity, quit — with noreply, expiry (relative and
// absolute), CAS, and LRU eviction under -max-bytes. The Go heap
// target follows -max-bytes too (memlimit.go), unless GOMEMLIMIT is
// set.
//
// With -debug-addr, a second HTTP listener exposes the observability
// plane: /metrics (Prometheus text), /debug/vars (expvar-style JSON),
// /debug/events (resize lifecycle timeline), /debug/ops (the
// flight recorder's sampled per-operation path/latency summary, when
// -flight-sample is on), and /debug/pprof. The rp engine additionally
// records grace-period waits, stripe-lock waits, and per-command
// service latency into the same plane, and can run an anomaly
// watchdog (-watchdog-interval) that detects grace-period stalls,
// stripe convoys, stuck resizes, and eviction storms, dumping a
// first-trigger diagnostic bundle per class to -watchdog-bundle-dir.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"rphash/internal/core"
	"rphash/internal/memcache"
	"rphash/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "listen address")
		engine    = flag.String("engine", "rp", "storage engine: rp | rp-flat | lock")
		maxBytes  = flag.Int64("max-bytes", 64<<20, "memory budget in bytes (0 = unlimited)")
		sweep     = flag.Duration("sweep", time.Second, "expired-item sweep interval for engines that expose an external sweep pass (the rp engine sweeps itself incrementally; lock expires lazily)")
		quiet     = flag.Bool("quiet", false, "suppress connection error logs")
		debugAddr = flag.String("debug-addr", "", "HTTP listen address for /metrics, /debug/vars, /debug/events, /debug/ops and /debug/pprof (empty = observability off)")

		flightSample = flag.Int("flight-sample", 0, "flight-recorder sampling: record 1-in-N table writes to /debug/ops (0 = recorder off; requires -debug-addr)")

		wdInterval   = flag.Duration("watchdog-interval", 0, "anomaly watchdog tick cadence (0 = watchdog off; requires -debug-addr; rp engines only)")
		wdGraceStall = flag.Duration("watchdog-grace-stall", 0, "grace-period wait that counts as a stall (0 = watchdog default)")
		wdEvictStorm = flag.Uint64("watchdog-evict-storm", 0, "per-tick eviction count that counts as a storm (0 = watchdog default)")
		wdBundleDir  = flag.String("watchdog-bundle-dir", "", "directory for first-trigger diagnostic bundles (empty = no bundles)")
	)
	flag.Parse()
	followHeapLimit(*maxBytes)

	// One observer hub spans every layer: the store threads it down
	// through cache/shard/core/rcu, and the server times command
	// dispatch into it. Only allocated when the debug listener is on,
	// so the default run keeps the instrumentation compiled to nil
	// checks.
	var o *obs.Observer
	if *debugAddr != "" {
		var oopts []obs.ObserverOption
		if *flightSample > 0 {
			oopts = append(oopts, obs.WithFlightRecorder(*flightSample, 0))
		}
		o = obs.NewObserver(oopts...)
	}

	var store memcache.Store
	switch *engine {
	case "rp", "rp-flat":
		var sopts []memcache.StoreOption
		if o != nil {
			sopts = append(sopts, memcache.WithStoreObserver(o))
		}
		if *engine == "rp-flat" {
			sopts = append(sopts, memcache.WithStoreEngine(core.EngineFlat))
		}
		store = memcache.NewRPStore(*maxBytes, sopts...)
	case "lock":
		store = memcache.NewLockStore(*maxBytes)
	default:
		fmt.Fprintf(os.Stderr, "memcached: unknown engine %q (want rp, rp-flat, or lock)\n", *engine)
		os.Exit(2)
	}

	srv := memcache.NewServer(store, *sweep)
	if !*quiet {
		srv.Logf = log.Printf
	}
	if o != nil {
		srv.Observer = o
		reg := obs.NewRegistry()
		if rp, ok := store.(*memcache.RPStore); ok {
			rp.RegisterMetrics(reg)
			if *wdInterval > 0 {
				rp.StartWatchdog(reg, obs.WatchdogConfig{
					Interval:      *wdInterval,
					GraceStall:    *wdGraceStall,
					EvictionStorm: *wdEvictStorm,
					BundleDir:     *wdBundleDir,
				})
				log.Printf("memcached: watchdog on (interval=%s bundles=%q)", *wdInterval, *wdBundleDir)
			}
		} else {
			o.Register(reg)
		}
		mux := http.NewServeMux()
		obs.Mount(mux, reg, o)
		go func() {
			log.Printf("memcached: debug listener on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				log.Printf("memcached: debug listener: %v", err)
			}
		}()
	}
	log.Printf("memcached: engine=%s addr=%s max-bytes=%d", *engine, *addr, *maxBytes)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatalf("memcached: %v", err)
	}
}
