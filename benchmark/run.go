package main

import (
	"context"
	"fmt"
	"time"
)

// Shares of -seconds a traced run gives its parts: the ledger's
// replays, and the short pass of the real workload the counters are
// read from (and, where the workload has one, the same pass again
// against a server with -debug-addr).
const (
	ledgerShare  = 0.5
	countedShare = 0.3
)

// roundsPerRun is how many rounds an untraced run is made of: each a
// fresh process (server child or library child) set up and then
// measured for a third of -seconds. setup_s is the median of the
// rounds' set-ups; see combine for the rest.
const roundsPerRun = 3

// measure runs the workload itself, untraced, for seconds.
func (r runner) measure(ctx context.Context, sp spec, seed uint64, seconds float64, rounds int, extra ...string) (*measured, error) {
	if sp.TCP {
		return runMC(ctx, sp, seed, seconds, r.memcached, rounds, extra...)
	}
	return r.runLib(ctx, sp, seed, seconds, rounds)
}

// untraced is the run end-to-end metrics come from.
func (r runner) untraced(ctx context.Context, sp spec, seed uint64, seconds float64) (*runResult, error) {
	begin := time.Now()
	m, err := r.measure(ctx, sp, seed, seconds, roundsPerRun)
	if err != nil {
		return nil, err
	}
	res := newResult(sp, seed, 0, seconds, endToEnd, map[string]float64{
		"setup_s":       median(m.SetupS),
		"ops_per_s":     m.OpsPerS,
		"cpu_us_per_op": m.CPUUSPerOp,
		"peak_rss_mb":   m.PeakRSSMB,
	})
	// Measured by the same run, shown beside the end-to-end metrics,
	// and not among them: see README on the latency percentiles.
	res.Also = map[string]metric{
		"p50_us":            {m.P50US, "us"},
		"p99_us":            {m.P99US, "us"},
		"gen.late_ratio":    {m.LateRatio, "ratio"},
		"gen.cpu_us_per_op": {m.GenCPUUSPerOp, "us"},
	}
	if !sp.TCP {
		res.Also["gen.huge_mb"] = metric{m.HugeMB, "MiB"}
	}
	res.Samples = map[string]int{"p50_us": m.P50Samples, "p99_us": m.P99Samples, "setup_s": len(m.SetupS)}
	res.SetupS = m.SetupS
	res.SliceOpsPerS = m.SliceOpsPerS
	res.ServerStats = m.Stats
	res.finish(m.Attempted, m.Failed, m.Problems, begin)
	return res, nil
}

// traced is the run per-layer metrics come from: the ledger, then a
// short counted pass of the workload itself.
func (r runner) traced(ctx context.Context, sp spec, seed uint64, seconds float64) (*runResult, []span, error) {
	begin := time.Now()
	vals := map[string]float64{}
	var led *ledger
	if sp.TCP {
		var err error
		if led, err = ledgerMC(sp, seed, seconds*ledgerShare); err != nil {
			return nil, nil, err
		}
		led.metrics("hashfn.string_ns", vals)
	} else {
		led = ledgerLib(sp, seed, seconds*ledgerShare)
		led.metrics("hashfn.uint64_ns", vals)
	}
	vals["rcu.synchronize_us"] = synchronizeCost()
	attempted, failed := led.totals()

	m, err := r.measure(ctx, sp, seed, seconds*countedShare, 1)
	if err != nil {
		return nil, nil, err
	}
	attempted += m.Attempted
	failed += m.Failed
	problems := m.Problems
	for k, v := range m.Counters {
		vals[k] = v
	}
	vals["p50_us"] = m.P50US
	vals["p99_us"] = m.P99US
	if !m.P99Supported {
		problems = append(problems, fmt.Sprintf("p99_us has fewer than %d of its %d samples beyond it", minBeyond, m.P99Samples))
	}
	vals["gen.late_ratio"] = m.LateRatio
	vals["gen.cpu_us_per_op"] = m.GenCPUUSPerOp
	if sp.TCP {
		st := m.Stats
		hits, misses := float64(statUint(st, "get_hits")), float64(statUint(st, "get_misses"))
		vals["cache.hit_ratio"] = hits / max(hits+misses, 1)
		vals["cache.evictions_per_s"] = float64(statUint(st, "evictions")) / m.UptimeS
		vals["cache.expirations"] = float64(statUint(st, "expired_unfetched"))
		vals["cache.cost_mb"] = float64(statUint(st, "bytes")) / (1 << 20)
		vals["rpstore.get_hits"] = hits
		vals["rpstore.get_misses"] = misses
		vals["rpstore.sets"] = float64(statUint(st, "cmd_set"))
		vals["rpstore.evictions"] = float64(statUint(st, "evictions"))
		vals["rpstore.cas_fallbacks"] = float64(statUint(st, "cas_fallbacks"))
		vals["rpstore.buckets"] = float64(statUint(st, "hash_buckets"))
	}
	if sp.DebugRun {
		addr, err := freeLoopbackAddr()
		if err != nil {
			return nil, nil, err
		}
		d, err := r.measure(ctx, sp, seed, seconds*countedShare, 1, "-debug-addr", addr)
		if err != nil {
			return nil, nil, err
		}
		attempted += d.Attempted
		failed += d.Failed
		problems = append(problems, d.Problems...)
		vals["trace.overhead_ratio"] = d.OpsPerS / m.OpsPerS
	}
	vals["fail_ratio"] = float64(failed) / float64(max(attempted, 1))

	res := newResult(sp, seed, 1, seconds, perLayer, vals)
	if sp.TCP {
		// What the ledger took out of its protocol and socket figures.
		res.Also = map[string]metric{
			"gen.get_ns": {vals["gen.get_ns"], "ns"},
			"gen.set_ns": {vals["gen.set_ns"], "ns"},
		}
	} else {
		res.Also = map[string]metric{"gen.huge_mb": {led.hugeMB, "MiB"}}
	}
	res.Samples = map[string]int{"p50_us": m.P50Samples, "p99_us": m.P99Samples}
	res.ServerStats = m.Stats
	res.finish(attempted, failed, problems, begin)
	return res, led.spans, nil
}

func (r *runResult) finish(attempted, failed uint64, problems []string, begin time.Time) {
	r.Attempted, r.Failed = attempted, failed
	r.Problems = append(r.Problems, problems...)
	r.Correct = failed == 0 && attempted > 0 && len(r.Problems) == 0
	r.WallS = time.Since(begin).Seconds()
}
