package bench

import (
	"runtime"
	"sync"
	"time"

	"rphash/internal/stats"
	"rphash/internal/workload"
)

// Config parameterizes a measurement run. The defaults mirror the
// paper's setup scaled to commodity hardware: tables toggled between
// 8k and 16k buckets, reader counts 1..16.
type Config struct {
	// Readers is the list of concurrent reader counts to sweep.
	Readers []int
	// Duration is the measured interval per point.
	Duration time.Duration
	// Keys is the number of elements preloaded into the table.
	Keys uint64
	// KeySpace is the lookup draw space; Keys < KeySpace gives
	// misses (default 2*Keys: 50% hit ratio).
	KeySpace uint64
	// SmallBuckets / LargeBuckets are the resize endpoints (and the
	// fixed sizes for baseline runs).
	SmallBuckets uint64
	LargeBuckets uint64
	// WarmDuration runs unmeasured before the timed interval.
	WarmDuration time.Duration
	// Repeats measures each point this many times and reports the
	// median, suppressing scheduler and GC noise on small hosts.
	Repeats int
	// WriteSkew, when > 1, draws writer keys from a Zipf
	// distribution with that exponent instead of uniformly — the
	// hot-key workload the write fast-path ablation (A7) contrasts
	// with uniform writes. Readers always draw uniformly.
	WriteSkew float64
}

// DefaultConfig mirrors the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Readers:      []int{1, 2, 4, 8, 16},
		Duration:     400 * time.Millisecond,
		Keys:         8192,
		KeySpace:     16384,
		SmallBuckets: 8192,
		LargeBuckets: 16384,
		WarmDuration: 50 * time.Millisecond,
		Repeats:      3,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if len(c.Readers) == 0 {
		c.Readers = d.Readers
	}
	if c.Duration <= 0 {
		c.Duration = d.Duration
	}
	if c.Keys == 0 {
		c.Keys = d.Keys
	}
	if c.KeySpace == 0 {
		c.KeySpace = 2 * c.Keys
	}
	if c.SmallBuckets == 0 {
		c.SmallBuckets = d.SmallBuckets
	}
	if c.LargeBuckets == 0 {
		c.LargeBuckets = d.LargeBuckets
	}
	if c.WarmDuration <= 0 {
		c.WarmDuration = d.WarmDuration
	}
	if c.Repeats <= 0 {
		c.Repeats = d.Repeats
	}
}

// Preload fills an engine with cfg.Keys sequential keys.
func Preload(e Engine, cfg Config) {
	for i := uint64(0); i < cfg.Keys; i++ {
		e.Set(i, int(i))
	}
}

// MeasureLookups runs `readers` goroutines performing uniform-random
// lookups for cfg.Duration and returns aggregate lookups/second. If
// resize is true, one additional goroutine continuously toggles the
// table between SmallBuckets and LargeBuckets — the paper's
// continuous-resize worst case.
func MeasureLookups(e Engine, readers int, resize bool, cfg Config) float64 {
	cfg.fillDefaults()

	// Oversubscription beyond physical cores is part of the sweep
	// (the paper's testbed had 16 ways; we keep the x-axis and let
	// GOMAXPROCS cap physical parallelism).
	_ = runtime.GOMAXPROCS(0)

	counters := stats.NewCounterSet(readers)
	stopWarm := make(chan struct{})
	stop := make(chan struct{})
	start := make(chan struct{})
	var ready, done sync.WaitGroup

	for r := 0; r < readers; r++ {
		ready.Add(1)
		done.Add(1)
		go func(id int) {
			defer done.Done()
			lookup, closeFn := e.NewLookup()
			if closeFn != nil {
				defer closeFn()
			}
			gen := workload.NewUniform(cfg.KeySpace, uint64(id)*0x9e3779b9+1)
			ready.Done()
			<-start

			// Warm phase: run flat out, discard counts.
			for {
				select {
				case <-stopWarm:
					goto measured
				default:
				}
				lookup(gen.Key())
			}
		measured:
			slot := counters.Slot(id)
			var local uint64
			for {
				select {
				case <-stop:
					slot.Add(local)
					return
				default:
				}
				// Batch between channel polls so the poll cost does
				// not dominate short lookups.
				for i := 0; i < 64; i++ {
					lookup(gen.Key())
				}
				local += 64
			}
		}(r)
	}

	var resizeDone sync.WaitGroup
	if resize {
		resizeDone.Add(1)
		go func() {
			defer resizeDone.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.Resize(cfg.LargeBuckets)
				e.Resize(cfg.SmallBuckets)
			}
		}()
	}

	ready.Wait()
	close(start)
	time.Sleep(cfg.WarmDuration)
	close(stopWarm)
	t0 := time.Now()
	time.Sleep(cfg.Duration)
	close(stop)
	done.Wait()
	elapsed := time.Since(t0)
	resizeDone.Wait()

	return float64(counters.Total()) / elapsed.Seconds()
}

// MeasureResult bundles a measurement with its context for reporting.
type MeasureResult struct {
	Engine  string
	Readers int
	Resize  bool
	OpsPerS float64
}
