// Command rphash-bench regenerates the paper's microbenchmark figures
// (1: fixed-size baseline; 2: continuous resizing; 3: RP resize vs
// fixed; 4: DDDS resize vs fixed) plus the repository's extensions
// (5: multi-writer upserts — striped single table vs its single-mutex
// ablation vs sharded map vs lock baselines; 6: TTL cache workload,
// rp-cache vs the bare sharded map; 7: multi-get batch amortization,
// batch path vs per-key loop at batch sizes 1/10/100) as text tables,
// with optional CSV and machine-readable JSON.
//
// Usage:
//
//	rphash-bench [flags]
//
//	-fig N          figure to run (1..7), or 0 for all (default 0)
//	-duration D     measured interval per point (default 400ms)
//	-warm D         warmup per point (default 50ms)
//	-readers LIST   comma-separated reader counts (default 1,2,4,8,16)
//	-keys N         preloaded elements (default 8192)
//	-keyspace N     lookup draw space (default 2*keys: 50% hit ratio)
//	-small N        small/fixed bucket count (default 8192)
//	-large N        large bucket count (default 16384)
//	-csv            also emit CSV per figure
//	-json           also write BENCH_fig<N>.json per figure (engine,
//	                threads, batch, ops/sec per point) so successive
//	                PRs can diff benchmark trajectories
//	-engines LIST   extra fixed-size engines to append to figure 1
//	                (any of: rp-1lock,rp-sharded,rp-cache,
//	                mutex,sharded,xu,syncmap)
//	-shards N       shard count for the rp-sharded engine (default
//	                0 = shard.DefaultShards: one per ~4 cores, cap 16)
//	-ablation       run the ablation suite (A1–A5, A7, A8)
//	-caswrite       run only ablation A7: the lock-free write fast
//	                path (locked vs CAS insert, striped vs CAS value
//	                RMW, uniform + zipf); with -json also writes
//	                BENCH_ablation7.json
//	-flatengine     run only ablation A8: the flat bucket engine vs
//	                the chain engine (read-uniform, read-zipf, mixed
//	                at 1..-writers threads; bytes/element for both
//	                layouts via the A4 methodology); with -json also
//	                writes BENCH_ablation8.json
//	-writers N      the top of the A7 writer sweep and the A8 thread
//	                sweep (default 8)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rphash/internal/bench"
	"rphash/internal/stats"
)

func main() {
	var (
		figN     = flag.Int("fig", 0, "figure to run (1..6); 0 = all")
		duration = flag.Duration("duration", 400*time.Millisecond, "measured interval per point")
		warm     = flag.Duration("warm", 50*time.Millisecond, "warmup per point")
		readers  = flag.String("readers", "1,2,4,8,16", "comma-separated reader counts")
		keys     = flag.Uint64("keys", 8192, "preloaded elements")
		keyspace = flag.Uint64("keyspace", 0, "lookup draw space (0 = 2*keys)")
		small    = flag.Uint64("small", 8192, "small/fixed bucket count")
		large    = flag.Uint64("large", 16384, "large bucket count")
		csv      = flag.Bool("csv", false, "also emit CSV")
		jsonOut  = flag.Bool("json", false, "also write BENCH_fig<N>.json per figure")
		repeats  = flag.Int("repeats", 3, "runs per point (median reported)")
		extra    = flag.String("engines", "", "extra engines for figure 1 (rp-sharded,rp-cache,mutex,sharded,xu,syncmap)")
		shards   = flag.Int("shards", 0, "shard count for the rp-sharded engine (0 = shard.DefaultShards: one per ~4 cores, cap 16)")
		ablation = flag.Bool("ablation", false, "run the ablation suite (A1-A5, A7, A8) instead of the paper figures")
		casA7    = flag.Bool("caswrite", false, "run only ablation A7 (lock-free write fast path); with -json writes BENCH_ablation7.json")
		flatA8   = flag.Bool("flatengine", false, "run only ablation A8 (flat vs chain bucket engine); with -json writes BENCH_ablation8.json")
		writers  = flag.Int("writers", 8, "the top of the A7 writer sweep and the A8 thread sweep")
	)
	flag.Parse()
	bench.DefaultShards = *shards

	rs, err := parseReaders(*readers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rphash-bench:", err)
		os.Exit(2)
	}
	cfg := bench.Config{
		Readers:      rs,
		Duration:     *duration,
		WarmDuration: *warm,
		Keys:         *keys,
		KeySpace:     *keyspace,
		SmallBuckets: *small,
		LargeBuckets: *large,
		Repeats:      *repeats,
	}

	fmt.Printf("rphash-bench: GOMAXPROCS=%d keys=%d small=%d large=%d duration=%v\n\n",
		runtime.GOMAXPROCS(0), *keys, *small, *large, *duration)

	if *casA7 {
		if err := runAblationA7(cfg, *writers, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "rphash-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *flatA8 {
		if err := runAblationA8(cfg, *writers, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "rphash-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *ablation {
		runAblations(cfg, *csv)
		if err := runAblationA7(cfg, *writers, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "rphash-bench:", err)
			os.Exit(1)
		}
		if err := runAblationA8(cfg, *writers, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "rphash-bench:", err)
			os.Exit(1)
		}
		return
	}

	figs := []int{1, 2, 3, 4, 5, 6, 7}
	if *figN != 0 {
		figs = []int{*figN}
	}
	for _, n := range figs {
		fig, err := bench.RunFigure(n, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rphash-bench:", err)
			os.Exit(2)
		}
		if n == 1 && *extra != "" {
			appendExtraEngines(&fig, *extra, cfg)
		}
		if err := bench.WriteFigure(os.Stdout, fig, *csv); err != nil {
			fmt.Fprintln(os.Stderr, "rphash-bench:", err)
			os.Exit(1)
		}
		if *jsonOut {
			if err := writeJSONFigure(n, fig); err != nil {
				fmt.Fprintln(os.Stderr, "rphash-bench:", err)
				os.Exit(1)
			}
		}
	}
}

// jsonPoint is one measured point in the machine-readable output:
// enough context (engine, threads, batch) that successive PRs can
// diff ops/sec without re-deriving what an x value meant. P99NS is
// the sampled 99th-percentile per-op latency in nanoseconds, present
// for the figures that measure it (5 and 7).
type jsonPoint struct {
	Engine    string  `json:"engine"`
	Threads   int     `json:"threads"`
	Batch     int     `json:"batch"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P99NS     float64 `json:"p99_ns,omitempty"`
}

type jsonFigure struct {
	Figure int         `json:"figure"`
	Title  string      `json:"title"`
	Points []jsonPoint `json:"points"`
}

// writeJSONFigure writes BENCH_fig<N>.json in the working directory.
// Figure 7 sweeps batch size at a fixed thread count; every other
// figure sweeps threads (readers or writers) at batch size 1. Series
// Y values are millions of ops/sec, scaled back to ops/sec here.
func writeJSONFigure(n int, fig stats.Figure) error {
	out := jsonFigure{Figure: n, Title: fig.Title}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			jp := jsonPoint{Engine: s.Name, Threads: int(p.X), Batch: 1, OpsPerSec: p.Y * 1e6, P99NS: p.P99NS}
			if n == bench.Fig7MultiGet {
				jp.Threads = bench.MultiGetReaders
				jp.Batch = int(p.X)
			}
			out.Points = append(out.Points, jp)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("BENCH_fig%d.json", n)
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", name)
	return nil
}

func runAblations(cfg bench.Config, csv bool) {
	fmt.Println("== Ablation A1: read-side flavor ==")
	if err := bench.WriteFigure(os.Stdout, bench.AblationReadFlavor(cfg), csv); err != nil {
		fmt.Fprintln(os.Stderr, "rphash-bench:", err)
		os.Exit(1)
	}

	fmt.Println("== Ablation A2: unzip grace-period batching ==")
	fmt.Printf("%-18s %10s %10s %12s %14s %8s %10s\n",
		"mode", "keys", "buckets", "elapsed", "grace-periods", "passes", "cuts")
	for _, r := range bench.AblationUnzipBatching(16384, 4096) {
		fmt.Printf("%-18s %10d %5d->%-5d %12v %14d %8d %10d\n",
			r.Mode, r.Keys, r.FromBuckets, r.ToBuckets,
			r.Elapsed.Round(time.Microsecond), r.GracePeriods, r.UnzipPasses, r.UnzipCuts)
	}
	fmt.Println()

	fmt.Println("== Ablation A3: lookup throughput vs load factor ==")
	if err := bench.WriteFigure(os.Stdout, bench.AblationLoadFactor(cfg, 2), csv); err != nil {
		fmt.Fprintln(os.Stderr, "rphash-bench:", err)
		os.Exit(1)
	}

	fmt.Println("== Ablation A4: bytes per element (live heap) ==")
	fmt.Printf("%-24s %10s %14s\n", "table", "keys", "bytes/elem")
	for _, r := range bench.AblationNodeMemory(1 << 19) {
		fmt.Printf("%-24s %10d %14.1f\n", r.Table, r.Keys, r.BytesPerElem)
	}
	fmt.Println()

	fmt.Println("== Ablation A5: writer locking (striped vs single mutex) ==")
	if err := bench.WriteFigure(os.Stdout, bench.AblationStripedLocking(cfg), csv); err != nil {
		fmt.Fprintln(os.Stderr, "rphash-bench:", err)
		os.Exit(1)
	}
}

// a7Writers expands the -writers flag into the A7 sweep: powers of
// two from 1 up to and including `top` (so -writers 8 gives 1,2,4,8
// and the CI smoke's -writers 4 gives 1,2,4).
func a7Writers(top int) []int {
	if top < 1 {
		top = 8
	}
	var out []int
	for w := 1; w <= top; w *= 2 {
		out = append(out, w)
	}
	return out
}

// runAblationA7 runs the lock-free write fast-path ablation (locked
// vs CAS insert, striped vs CAS value RMW), printing a table and
// optionally writing BENCH_ablation7.json in the same points format
// as the figure trajectories, so benchgate can gate it: the engine
// field encodes arm and workload ("cas-insert/zipf"), threads is the
// writer count.
func runAblationA7(cfg bench.Config, writers int, jsonOut bool) error {
	fmt.Println("== Ablation A7: lock-free write fast path ==")
	rows := bench.AblationCASWrite(cfg, a7Writers(writers))
	fmt.Printf("%-9s %-14s %8s %16s\n", "workload", "arm", "writers", "ops/s")
	for _, r := range rows {
		fmt.Printf("%-9s %-14s %8d %16.0f\n", r.Workload, r.Arm, r.Writers, r.OpsPerS)
	}
	fmt.Println()

	if !jsonOut {
		return nil
	}
	out := jsonFigure{
		Figure: 7,
		Title:  "Ablation A7: lock-free write fast path (locked vs CAS insert, striped vs CAS value)",
	}
	for _, r := range rows {
		out.Points = append(out.Points, jsonPoint{
			Engine:    r.Arm + "/" + r.Workload,
			Threads:   r.Writers,
			Batch:     1,
			OpsPerSec: r.OpsPerS,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_ablation7.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote BENCH_ablation7.json\n\n")
	return nil
}

// ablation8JSON is BENCH_ablation8.json: the throughput rows in the
// same points format as the figure trajectories (engine encodes
// "engine/workload", threads is the goroutine count) so benchgate
// auto-pairs and gates them like any figure series, plus the memory
// rows, which benchgate ignores.
type ablation8JSON struct {
	Ablation int                      `json:"ablation"`
	Title    string                   `json:"title"`
	Points   []jsonPoint              `json:"points"`
	Memory   []bench.FlatMemoryResult `json:"memory"`
}

// runAblationA8 runs the flat-vs-chain engine ablation (same threads
// sweep as A7: powers of two up to -writers), printing tables and
// optionally writing BENCH_ablation8.json.
func runAblationA8(cfg bench.Config, threads int, jsonOut bool) error {
	fmt.Println("== Ablation A8: flat vs chain bucket engine ==")
	res := bench.AblationFlatEngine(cfg, a7Writers(threads))
	fmt.Printf("%-14s %-8s %8s %16s\n", "workload", "engine", "threads", "ops/s")
	for _, r := range res.Throughput {
		fmt.Printf("%-14s %-8s %8d %16.0f\n", r.Workload, r.Engine, r.Threads, r.OpsPerS)
	}
	fmt.Println()
	fmt.Printf("%-14s %10s %14s\n", "config", "keys", "bytes/elem")
	for _, m := range res.Memory {
		fmt.Printf("%-14s %10d %14.1f\n", m.Config, m.Keys, m.BytesPerElem)
	}
	fmt.Println()

	if !jsonOut {
		return nil
	}
	out := ablation8JSON{
		Ablation: 8,
		Title:    "Ablation A8: flat vs chain bucket engine (throughput + bytes/element)",
		Memory:   res.Memory,
	}
	for _, r := range res.Throughput {
		out.Points = append(out.Points, jsonPoint{
			Engine:    r.Engine + "/" + r.Workload,
			Threads:   r.Threads,
			Batch:     1,
			OpsPerSec: r.OpsPerS,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_ablation8.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote BENCH_ablation8.json\n\n")
	return nil
}

func parseReaders(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad reader count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no reader counts given")
	}
	return out, nil
}

func appendExtraEngines(fig *stats.Figure, list string, cfg bench.Config) {
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		mk, ok := bench.Builders[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "rphash-bench: unknown engine %q (skipped)\n", name)
			continue
		}
		s := stats.Series{Name: name}
		for _, r := range cfg.Readers {
			e := mk(cfg.SmallBuckets)
			bench.Preload(e, cfg)
			ops := bench.MeasureLookups(e, r, false, cfg)
			e.Close()
			s.Add(float64(r), ops/1e6)
		}
		fig.Series = append(fig.Series, s)
	}
}
