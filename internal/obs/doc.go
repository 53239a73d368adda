// Package obs is the observability plane: lock-free latency
// histograms, a concurrent event ring for resize lifecycle
// tracing, and an export plane (hand-rolled Prometheus text format,
// expvar-style JSON, and net/http/pprof mounting).
//
// The package is deliberately stdlib-only and imports nothing else in
// this module, so every layer — internal/rcu included — can depend on
// it without cycles. All instrumentation points in the rest of the
// tree are nil-safe: a nil *Observer (or nil *Histogram / *Ring)
// means "off", and the off cost is a single pointer compare on paths
// that are instrumented at all. Hot read paths are not instrumented.
//
// Histogram is a striped power-of-two-bucket latency histogram:
// Record is a handful of uncontended atomic adds (zero allocations),
// Snapshot folds the stripes into a mergeable HistogramSnapshot with
// quantile estimation (p50/p95/p99) against bucket upper bounds.
//
// Ring is a fixed-size concurrent event log with per-slot sequence
// markers: writers claim a ticket with one atomic add and publish
// all-atomic fields under a seqlock-style marker, readers skip slots
// caught mid-write. Events double as runtime/trace log messages when
// tracing is active, so `go tool trace` shows resize lifecycles
// against goroutine timelines.
//
// Registry collects counters, gauges, and histograms behind closures
// and renders them as Prometheus text exposition or an expvar-style
// JSON document; Mount wires both plus the event-ring dump and the
// standard pprof handlers onto an http.ServeMux.
package obs
