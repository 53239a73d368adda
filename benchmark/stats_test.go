package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
}

// A p99 is reported from a window only when at least ten samples lie
// beyond it, which takes a thousand.
func TestP99NeedsTenBeyond(t *testing.T) {
	if got := beyond(1000, 0.99); got != minBeyond {
		t.Errorf("beyond(1000, 0.99) = %d, want %d", got, minBeyond)
	}
	if got := beyond(999, 0.99); got >= minBeyond {
		t.Errorf("beyond(999, 0.99) = %d, want fewer than %d", got, minBeyond)
	}
}

func ramp(n int, scale int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i+1) * scale
	}
	return s
}

func TestLatencySummary(t *testing.T) {
	// Three slices that each support a p99: the figure is the median
	// slice's, so the slow slice does not move it.
	sl := [][]int64{ramp(1000, 1000), ramp(1000, 1000), ramp(1000, 50_000)}
	p50, p99, n, ok := latencySummary(sl)
	if !ok || n != 3000 || p50 != 500 || p99 != 990 {
		t.Errorf("per-slice summary = p50 %v p99 %v n %d supported %v; want 500 990 3000 true", p50, p99, n, ok)
	}
	// Thin slices are pooled; 1200 samples still support a p99.
	sl = [][]int64{ramp(600, 1000), ramp(600, 1000)}
	_, p99, n, ok = latencySummary(sl)
	if !ok || n != 1200 || p99 != 594 {
		t.Errorf("pooled summary = p99 %v n %d supported %v; want 594 1200 true", p99, n, ok)
	}
	// 200 samples do not.
	if _, _, _, ok = latencySummary([][]int64{ramp(200, 1)}); ok {
		t.Error("200 samples reported as supporting a p99")
	}
	if _, _, n, ok = latencySummary(nil); n != 0 || ok {
		t.Error("empty summary not empty")
	}
}

func TestSelfTimes(t *testing.T) {
	// hashfn, core, shard (not run), cache, rpstore (its batching is
	// cheaper than the layer below's loop).
	cum := []float64{10, 110, 0, 150, 140}
	want := []float64{10, 100, 0, 40, -10}
	got := selfTimes(cum)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selfTimes(%v) = %v, want %v", cum, got, want)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 10, 2, 8, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
	if got, want := quartileSpread([]float64{10, 12}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of two = %v, want %v", got, want)
	}
	if quartileSpread([]float64{5}) != 0 {
		t.Error("one value has a spread")
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", steady, "lower", verdictOK},
		{"slower latency", []float64{120, 121, 119, 120, 120}, "lower", verdictBreach},
		{"faster latency", []float64{80, 81, 79, 80, 80}, "lower", verdictOK},
		{"lower throughput", []float64{80, 81, 79, 80, 80}, "higher", verdictBreach},
		{"noisy", []float64{60, 140, 100, 80, 120}, "lower", verdictUnresolved},
	} {
		if _, _, _, _, got := judge(steady, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// The protocol and socket steps run the benchmark's own client; the
// generator step's cost comes out of both, class by class, before
// self times are taken.
func TestLedgerNetsGeneratorOut(t *testing.T) {
	step := func(getNS, setNS time.Duration) *layerCost {
		return &layerCost{ns: [2]time.Duration{getNS * 10, setNS * 10}, keys: [2]uint64{10, 10}}
	}
	l := &ledger{hashNS: 10, cost: map[string]*layerCost{
		"rpstore":     step(100, 900),
		generatorStep: step(50, 200),
		"protocol":    step(400, 3000),
		"socket":      step(500, 8000),
	}}
	got := map[string]float64{}
	l.metrics("hashfn.string_ns", got)
	for name, want := range map[string]float64{
		"rpstore.get_ns": 100, "rpstore.get_self_ns": 90,
		"protocol.get_ns": 350, "protocol.get_self_ns": 250, "protocol.set_ns": 2800,
		"socket.get_ns": 450, "socket.get_self_ns": 100, "socket.set_self_ns": 5000,
		"gen.get_ns": 50, "gen.set_ns": 200,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// A run's figures are the means of its rounds', except the set-up
// times (kept apart for their median) and the peak RSS (the worst).
func TestCombineRounds(t *testing.T) {
	m := combine([]*measured{
		{SetupS: []float64{1}, OpsPerS: 600, CPUUSPerOp: 2, P50US: 10, P99US: 100, PeakRSSMB: 50, P99Supported: true, Attempted: 5, Failed: 1, P50Samples: 7},
		{SetupS: []float64{3}, OpsPerS: 900, CPUUSPerOp: 4, P50US: 20, P99US: 300, PeakRSSMB: 70, P99Supported: true, Attempted: 6, Problems: []string{"late"}, P50Samples: 8},
		{SetupS: []float64{2}, OpsPerS: 750, CPUUSPerOp: 3, P50US: 60, P99US: 200, PeakRSSMB: 60, P99Supported: false, Attempted: 7, Counters: map[string]float64{"x": 1}},
	})
	if m.OpsPerS != 750 || m.CPUUSPerOp != 3 || m.P50US != 30 || m.P99US != 200 || m.PeakRSSMB != 70 {
		t.Errorf("combined figures %+v", m)
	}
	if median(m.SetupS) != 2 || len(m.SetupS) != 3 {
		t.Errorf("set-ups %v, want the three with median 2", m.SetupS)
	}
	if m.Attempted != 18 || m.Failed != 1 || m.P50Samples != 15 || len(m.Problems) != 1 || m.P99Supported || m.Counters["x"] != 1 {
		t.Errorf("combined counts %+v", m)
	}
}
