package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"time"
)

// measured is what one round of a workload yields (a fresh process
// set up, then measured), or a run's rounds combined, whichever kind
// of workload it is.
type measured struct {
	SetupS        []float64 // one per round; the metric is their median
	OpsPerS       float64   // a round: median over the saturation window's slices
	SliceOpsPerS  []float64 // every slice's rate, in order
	P50US, P99US  float64   // TCP: p50 from the saturation window, p99 from the paced one
	P50Samples    int
	P99Samples    int
	P99Supported  bool    // at least minBeyond samples lie beyond the reported p99
	CPUUSPerOp    float64 // process under test
	GenCPUUSPerOp float64 // the generator's own share (TCP workloads)
	PeakRSSMB     float64
	LateRatio     float64
	Attempted     uint64
	Failed        uint64
	Problems      []string // reasons the run is invalid beyond Failed

	Stats    map[string]string  // TCP: the server's final stats dump
	UptimeS  float64            // TCP: server start to stats dump
	Counters map[string]float64 // library: counters read from the table after the run
	HugeMB   float64            // library: MiB of the process put on 2 MiB pages (see hugePages)
}

const (
	maxPacedSlices = 5
	satSlices      = 5
)

// combine reduces a run's rounds to the run's figures: means over the
// rounds (the worst round's peak RSS; the set-up times are kept apart,
// setup_s is their median). What differs between two processes running
// the same thing is what a run should average over, and a median of
// three cannot: lib-read-big-flat runs at one of several speeds up to
// 30% apart, fixed at process start (which physical pages the table
// got, presumably), whatever the seed.
func combine(rounds []*measured) *measured {
	last := rounds[len(rounds)-1]
	m := &measured{P99Supported: true, Stats: last.Stats, UptimeS: last.UptimeS, Counters: last.Counters}
	n := float64(len(rounds))
	for _, r := range rounds {
		m.SetupS = append(m.SetupS, r.SetupS...)
		m.SliceOpsPerS = append(m.SliceOpsPerS, r.SliceOpsPerS...)
		m.OpsPerS += r.OpsPerS / n
		m.CPUUSPerOp += r.CPUUSPerOp / n
		m.GenCPUUSPerOp += r.GenCPUUSPerOp / n
		m.P50US += r.P50US / n
		m.P99US += r.P99US / n
		m.LateRatio += r.LateRatio / n
		m.HugeMB += r.HugeMB / n
		m.PeakRSSMB = max(m.PeakRSSMB, r.PeakRSSMB)
		m.P50Samples += r.P50Samples
		m.P99Samples += r.P99Samples
		m.P99Supported = m.P99Supported && r.P99Supported
		m.Attempted += r.Attempted
		m.Failed += r.Failed
		m.Problems = append(m.Problems, r.Problems...)
	}
	return m
}

// pacedSliceCount cuts a paced window of n requests into as many
// slices (at most maxPacedSlices) as can each support a p99.
func pacedSliceCount(n float64) int {
	return min(max(int(n/1000), 1), maxPacedSlices)
}

// both runs fn for every connection concurrently and returns the
// first error.
func both(cs []*mcConn, fn func(c *mcConn) error) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runMC measures one TCP workload in rounds, each an equal share of
// seconds: start a server, preload and warm it (set-up, timed from the
// child's start to the first measured request), then the paced window
// for latency and the saturation window for throughput and CPU.
// Streams are generated before any server starts, so the generator's
// own preparation is in no measured interval.
func runMC(ctx context.Context, sp spec, seed uint64, seconds float64, bin string, rounds int, extra ...string) (*measured, error) {
	r := mcRun{
		sp: &sp, tab: renderKeys(sp.Keys), streams: make([]*mcStream, conns), seconds: seconds / float64(rounds), bin: bin,
		args: append([]string{"-max-bytes", strconv.FormatInt(sp.MaxBytes, 10)}, extra...),
	}
	for i := range r.streams {
		r.streams[i] = genMCStream(sp, seed, i)
	}
	ms := make([]*measured, rounds)
	for k := range ms {
		var err error
		if ms[k], err = r.round(ctx); err != nil {
			return nil, err
		}
	}
	return combine(ms), nil
}

// mcRun is what the rounds of one TCP run share.
type mcRun struct {
	sp      *spec
	tab     []byte
	streams []*mcStream
	seconds float64 // per round
	bin     string
	args    []string // the server's, after the ones startServer adds
}

// round starts a server, sets it up and measures it.
func (r *mcRun) round(ctx context.Context) (m *measured, err error) {
	sp, tab, streams, seconds := r.sp, r.tab, r.streams, r.seconds
	srv, err := startServer(ctx, r.bin, r.args...)
	if err != nil {
		return nil, err
	}
	defer func() {
		srv.stop()
		if err != nil {
			err = fmt.Errorf("%w\nserver log:\n%s", err, srv.log.Bytes())
		}
	}()

	cs := make([]*mcConn, conns)
	for i := range cs {
		nc, err := net.Dial("tcp", srv.addr)
		if err != nil {
			return nil, err
		}
		defer nc.Close()
		cs[i] = newMCConn(i, sp, nc, tab)
	}

	// Warm-up reads keys the other connection preloads, so it starts
	// only when both have finished.
	share := (sp.Preload + conns - 1) / conns
	err = both(cs, func(c *mcConn) error {
		return c.preload(c.id*share, min((c.id+1)*share, sp.Preload))
	})
	if err == nil {
		err = both(cs, func(c *mcConn) error { return c.step(streams[c.id], sp.Warmup) })
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m = &measured{SetupS: []float64{time.Since(srv.started).Seconds()}}

	// Paced window: latency.
	minimizeTimerSlack()
	pacedSlices := pacedSliceCount(seconds / 3 * float64(sp.PacedRate))
	per := time.Duration(seconds / 3 / float64(pacedSlices) * float64(time.Second))
	interval := time.Duration(float64(conns) / float64(sp.PacedRate) * float64(time.Second))
	paced := make([]window, conns)
	start := time.Now().Add(time.Millisecond)
	err = both(cs, func(c *mcConn) (err error) {
		phase := interval * time.Duration(c.id) / conns
		paced[c.id], err = c.paced(streams[c.id], start, phase, interval, pacedSlices, per)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("paced window: %w", err)
	}
	var sent, late uint64
	for _, w := range paced {
		sent += w.sent
		late += w.late
	}
	_, m.P99US, m.P99Samples, m.P99Supported = latencySummary(mergeLat(paced))
	m.LateRatio = float64(late) / float64(max(sent, 1))
	if m.LateRatio > 0.01 {
		m.Problems = append(m.Problems, fmt.Sprintf("paced window invalid: %.2f%% of requests were sent more than %v late", 100*m.LateRatio, lateAfter))
	}

	// Saturation window: throughput and CPU.
	per = time.Duration(seconds * 2 / 3 / satSlices * float64(time.Second))
	sat := make([]window, conns)
	srvCPU0, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	genCPU0, _ := procCPU(os.Getpid()) // a validity figure only: a failed read leaves it 0
	start = time.Now()
	err = both(cs, func(c *mcConn) (err error) {
		sat[c.id], err = c.saturate(streams[c.id], start, satSlices, per)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("saturation window: %w", err)
	}
	srvCPU1, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	genCPU1, _ := procCPU(os.Getpid())
	m.P50US, _, m.P50Samples, _ = latencySummary(mergeLat(sat))
	m.SliceOpsPerS = sliceRates(sat)
	m.OpsPerS = median(m.SliceOpsPerS)
	var ops uint64
	for _, w := range sat {
		for _, n := range w.ops {
			ops += n
		}
	}
	m.CPUUSPerOp = float64((srvCPU1 - srvCPU0).Microseconds()) / float64(ops)
	m.GenCPUUSPerOp = float64((genCPU1 - genCPU0).Microseconds()) / float64(ops)

	// What the server says it did must be what the generator sent.
	var total tally
	for _, c := range cs {
		total.add(c.tally)
	}
	m.Attempted, m.Failed = total.Ops, total.Failed
	if m.Stats, err = srv.stats(); err != nil {
		return nil, err
	}
	m.UptimeS = time.Since(srv.started).Seconds()
	hits, misses, sets := statUint(m.Stats, "get_hits"), statUint(m.Stats, "get_misses"), statUint(m.Stats, "cmd_set")
	if hits+misses != total.GetKeys || hits != total.Hits || sets != total.Sets {
		m.Problems = append(m.Problems, fmt.Sprintf(
			"server counted %d hits + %d misses and %d sets; generator sent %d get keys (%d hits) and %d sets",
			hits, misses, sets, total.GetKeys, total.Hits, total.Sets))
	}
	if m.PeakRSSMB, err = procPeakRSS(srv.pid()); err != nil {
		return nil, err
	}
	return m, nil
}

// mergeLat pools the workers' latency samples slice by slice.
func mergeLat(ws []window) [][]int64 {
	lat := make([][]int64, len(ws[0].lat))
	for _, w := range ws {
		for i := range lat {
			lat[i] = append(lat[i], w.lat[i]...)
		}
	}
	return lat
}

// sliceRates is, per slice, the ops/s all workers completed together.
func sliceRates(ws []window) []float64 {
	if len(ws) == 0 {
		return nil
	}
	rates := make([]float64, len(ws[0].ops))
	for _, w := range ws {
		for i, n := range w.ops {
			rates[i] += float64(n) / w.span[i].Seconds()
		}
	}
	return rates
}

func statUint(st map[string]string, key string) uint64 {
	v, _ := strconv.ParseUint(st[key], 10, 64)
	return v
}
