package main

import "math"

// spec freezes one workload's sizes. The reasons each workload exists
// are in BENCHMARK.json and README.md; the numbers here are what the
// reasons depend on (working set against cache, data against budget,
// paced rate against saturation) and change only in a PR that changes
// the benchmark and nothing else.
type spec struct {
	Name string
	// TCP workloads (mc-*) drive a cmd/memcached child; library
	// workloads (lib-*) call the public rphash veneer in a re-exec'd
	// copy of this binary.
	TCP bool

	Keys    int // key space the op stream draws from
	Preload int // keys stored before the first measured op

	// TCP only.
	ValueSize int     // bytes per value
	MaxBytes  int64   // server -max-bytes
	MultiGet  int     // keys per get request
	SetFrac   float64 // share of requests that are sets
	ZipfS     float64 // Zipf exponent; 0 = uniform
	PacedRate int     // open-loop requests/s, total over both connections
	MissLegal bool    // data exceeds the budget, so a get may miss
	Warmup    int     // closed-loop requests per connection before the first measured op
	StreamLen int     // pre-generated requests per connection (cycled)
	// DebugRun adds a second server with -debug-addr to the traced
	// run and reports trace.overhead_ratio.
	DebugRun bool

	// Library only.
	Buckets uint64 // lib-read-resize flips between Buckets and 2*Buckets
	LowKeys int    // lib-churn: the window drains back to this many keys
}

// conns is both the connection count of every TCP workload and the
// goroutine count of every library workload: the box has 2 cores.
const conns = 2

var specs = []spec{
	{
		Name: "mc-get-1key", TCP: true,
		Keys: 100_000, Preload: 100_000, ValueSize: 100, MaxBytes: 512 << 20,
		MultiGet: 1, PacedRate: 10_000, Warmup: 5_000, StreamLen: 1 << 18,
	},
	{
		Name: "mc-multiget-zipf", TCP: true,
		Keys: 500_000, Preload: 500_000, ValueSize: 100, MaxBytes: 1 << 30,
		MultiGet: 100, SetFrac: 0.05, ZipfS: 1.1, PacedRate: 5_000, Warmup: 2_000, StreamLen: 1 << 16,
		DebugRun: true,
	},
	{
		Name: "mc-set-evict", TCP: true,
		Keys: 400_000, Preload: 61_600, ValueSize: 1024, MaxBytes: 64 << 20,
		MultiGet: 1, SetFrac: 0.5, PacedRate: 1_300, MissLegal: true, Warmup: 500, StreamLen: 1 << 18,
	},
	{Name: "lib-read-resize", Keys: 1 << 16, Preload: 1 << 16, Buckets: 1 << 13},
	{Name: "lib-churn", Keys: 1_000_000, Preload: 1 << 16, LowKeys: 1 << 16},
	{Name: "lib-read-big-flat", Keys: 8_000_000, Preload: 8_000_000},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks the data sizes by f (tests run at f ≪ 1); rates,
// request shapes and stream lengths keep their frozen values.
func (s spec) scaled(f float64) spec {
	if f == 1 {
		return s
	}
	shrink := func(n int) int { return max(int(math.Round(float64(n)*f)), 64) &^ 1 }
	s.Keys, s.Preload = shrink(s.Keys), shrink(s.Preload)
	if s.LowKeys > 0 {
		s.LowKeys = shrink(s.LowKeys)
	}
	if s.MissLegal {
		// The budget is what makes misses legal: it shrinks with the keys.
		s.MaxBytes = int64(float64(s.MaxBytes) * f)
	}
	s.Warmup = max(int(float64(s.Warmup)*f), 100)
	return s
}

// Metric names and units. BENCHMARK.json lists the same names; the
// smoke test holds the two together.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MiB"},
}

// ledgerLayers is the stack, bottom up. hashfn has its own two
// metrics; every other layer reports the six stacked ones.
var ledgerLayers = []string{"core", "shard", "cache", "rpstore", "protocol", "socket"}

var perLayer = func() []metricDef {
	out := []metricDef{{"hashfn.string_ns", "ns"}, {"hashfn.uint64_ns", "ns"}}
	for _, l := range ledgerLayers {
		out = append(out,
			metricDef{l + ".get_ns", "ns"}, metricDef{l + ".set_ns", "ns"},
			metricDef{l + ".get_self_ns", "ns"}, metricDef{l + ".set_self_ns", "ns"},
			metricDef{l + ".allocs_per_op", "count"}, metricDef{l + ".bytes_per_op", "B"})
	}
	return append(out, []metricDef{
		{"core.resize_ms", "ms"}, {"core.resizes_per_s", "1/s"},
		{"core.expands", "count"}, {"core.shrinks", "count"}, {"core.unzip_passes", "count"},
		{"core.cas_fallback_ratio", "ratio"}, {"core.stripe_contended_ratio", "ratio"},
		{"core.auto_grows", "count"}, {"core.auto_shrinks", "count"},
		{"core.max_chain", "count"}, {"core.load_factor", "ratio"},
		{"core.flat_spill_ratio", "ratio"}, {"core.bytes_per_item", "B"},
		{"rcu.synchronize_us", "us"}, {"rcu.grace_periods", "count"}, {"rcu.deferred_backlog", "count"},
		{"cache.hit_ratio", "ratio"}, {"cache.evictions_per_s", "1/s"},
		{"cache.expirations", "count"}, {"cache.cost_mb", "MiB"},
		{"rpstore.get_hits", "count"}, {"rpstore.get_misses", "count"}, {"rpstore.sets", "count"},
		{"rpstore.evictions", "count"}, {"rpstore.cas_fallbacks", "count"}, {"rpstore.buckets", "count"},
		{"gen.late_ratio", "ratio"}, {"gen.cpu_us_per_op", "us"}, {"trace.overhead_ratio", "ratio"},
		{"fail_ratio", "ratio"}, {"p50_us", "us"}, {"p99_us", "us"},
	}...)
}()
