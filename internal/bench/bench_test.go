package bench

import (
	"strings"
	"testing"
	"time"
)

// tinyCfg keeps harness self-tests fast.
func tinyCfg() Config {
	return Config{
		Readers:      []int{1, 2},
		Duration:     30 * time.Millisecond,
		WarmDuration: 5 * time.Millisecond,
		Keys:         512,
		KeySpace:     1024,
		SmallBuckets: 256,
		LargeBuckets: 512,
	}
}

func TestAllEnginesBasicContract(t *testing.T) {
	for name, mk := range Builders {
		t.Run(name, func(t *testing.T) {
			e := mk(64)
			defer e.Close()
			if e.Name() == "" {
				t.Fatal("empty engine name")
			}
			e.Set(1, 10)
			e.Set(2, 20)
			lookup, closeFn := e.NewLookup()
			if !lookup(1) || !lookup(2) {
				t.Fatal("preloaded keys not found")
			}
			if lookup(999) {
				t.Fatal("absent key found")
			}
			e.Delete(1)
			if lookup(1) {
				t.Fatal("deleted key still found")
			}
			// Release the reader before resizing from the same
			// goroutine: a QSBR reader that has stopped looking up
			// is exactly the reader a grace period must wait out
			// (calling Resize while holding one would self-deadlock,
			// as in kernel QSBR).
			if closeFn != nil {
				closeFn()
			}
			e.Resize(128)
			lookup2, closeFn2 := e.NewLookup()
			if closeFn2 != nil {
				defer closeFn2()
			}
			if !lookup2(2) {
				t.Fatal("key lost across Resize")
			}
		})
	}
}

func TestMeasureLookupsProducesThroughput(t *testing.T) {
	cfg := tinyCfg()
	e := NewRP(cfg.SmallBuckets)
	defer e.Close()
	Preload(e, cfg)
	ops := MeasureLookups(e, 2, false, cfg)
	if ops <= 0 {
		t.Fatalf("throughput = %v, want > 0", ops)
	}
}

func TestMeasureLookupsWithResize(t *testing.T) {
	cfg := tinyCfg()
	for _, name := range []string{"rp", "ddds"} {
		e := Builders[name](cfg.SmallBuckets)
		Preload(e, cfg)
		ops := MeasureLookups(e, 2, true, cfg)
		e.Close()
		if ops <= 0 {
			t.Fatalf("%s: throughput under resize = %v", name, ops)
		}
	}
}

func TestRunFigureDispatch(t *testing.T) {
	cfg := tinyCfg()
	cfg.Readers = []int{1}
	cfg.Duration = 10 * time.Millisecond
	for n := 1; n <= NumMicrobenchFigs; n++ {
		fig, err := RunFigure(n, cfg)
		if err != nil {
			t.Fatalf("RunFigure(%d): %v", n, err)
		}
		if len(fig.Series) < 2 {
			t.Fatalf("figure %d has %d series", n, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Points) != 1 {
				t.Fatalf("figure %d series %q has %d points, want 1", n, s.Name, len(s.Points))
			}
			if s.Points[0].Y <= 0 {
				t.Fatalf("figure %d series %q measured %v Mops", n, s.Name, s.Points[0].Y)
			}
		}
	}
	if _, err := RunFigure(99, cfg); err == nil {
		t.Fatal("RunFigure(99) should fail")
	}
}

func TestWriteFigure(t *testing.T) {
	cfg := tinyCfg()
	cfg.Readers = []int{1}
	cfg.Duration = 10 * time.Millisecond
	fig, err := RunFigure(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFigure(&sb, fig, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "RP") || !strings.Contains(out, "rwlock") {
		t.Fatalf("rendered figure missing series:\n%s", out)
	}
	if !strings.Contains(out, "x,RP") {
		t.Fatalf("CSV section missing:\n%s", out)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SmallBuckets != 8192 || cfg.LargeBuckets != 16384 {
		t.Fatalf("resize endpoints %d/%d, paper uses 8k/16k", cfg.SmallBuckets, cfg.LargeBuckets)
	}
	want := []int{1, 2, 4, 8, 16}
	if len(cfg.Readers) != len(want) {
		t.Fatalf("readers = %v, paper sweeps %v", cfg.Readers, want)
	}
	for i, r := range want {
		if cfg.Readers[i] != r {
			t.Fatalf("readers = %v, paper sweeps %v", cfg.Readers, want)
		}
	}
}

func TestMeasureMixedProducesBothRates(t *testing.T) {
	cfg := tinyCfg()
	e := NewRPShardedN(4, cfg.SmallBuckets)
	defer e.Close()
	Preload(e, cfg)
	// On a single-core box under the race detector, a 30ms window can
	// occasionally starve one side entirely (goroutine time slices are
	// ~10ms); retry with a longer window before declaring the harness
	// broken.
	var res MixedResult
	for attempt := 0; attempt < 4; attempt++ {
		res = MeasureMixed(e, 2, 2, cfg)
		if res.LookupsPerS > 0 && res.UpsertsPerS > 0 {
			return
		}
		cfg.Duration *= 4
	}
	t.Fatalf("rates after retries: lookups=%v upserts=%v, want both > 0", res.LookupsPerS, res.UpsertsPerS)
}

func TestMeasureUpsertsAcrossEngines(t *testing.T) {
	cfg := tinyCfg()
	cfg.Duration = 10 * time.Millisecond
	for _, name := range []string{"rp", "rp-sharded", "sharded", "mutex"} {
		e := Builders[name](cfg.SmallBuckets)
		Preload(e, cfg)
		ops := MeasureUpserts(e, 2, cfg)
		e.Close()
		if ops <= 0 {
			t.Fatalf("%s: upsert throughput = %v, want > 0", name, ops)
		}
	}
}

func TestRunFigureWriteScaling(t *testing.T) {
	cfg := tinyCfg()
	cfg.Readers = []int{2}
	cfg.Duration = 10 * time.Millisecond
	fig, err := RunFigure(Fig5WriteScaling, cfg)
	if err != nil {
		t.Fatalf("RunFigure(5): %v", err)
	}
	if len(fig.Series) < 4 {
		t.Fatalf("figure 5 has %d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 1 || s.Points[0].Y <= 0 {
			t.Fatalf("figure 5 series %q measured %+v", s.Name, s.Points)
		}
	}
}

// ttlCfg: readers and writers both spin, so the window must span
// several scheduler rotations on a single-core host for every role to
// get a slice.
func ttlCfg() Config {
	cfg := tinyCfg()
	cfg.Duration = 250 * time.Millisecond
	cfg.WarmDuration = 20 * time.Millisecond
	cfg.Repeats = 1
	return cfg
}

func TestMeasureTTLMix(t *testing.T) {
	cfg := ttlCfg()
	e := NewRPCache(cfg.SmallBuckets)
	preloadTTL(e, cfg)
	res := MeasureTTLMix(e, 2, 1, cfg)
	e.Close()
	if res.LookupsPerS <= 0 || res.SetsPerS <= 0 {
		t.Fatalf("TTL mix rates: %+v", res)
	}
	if res.HitRatio <= 0 || res.HitRatio > 1 {
		t.Fatalf("HitRatio = %v, want in (0,1]", res.HitRatio)
	}

	// Engines without a TTL notion fall back to plain Sets.
	e2 := NewRPShardedN(1, cfg.SmallBuckets)
	preloadTTL(e2, cfg)
	res2 := MeasureTTLMix(e2, 2, 1, cfg)
	e2.Close()
	if res2.LookupsPerS <= 0 || res2.SetsPerS <= 0 {
		t.Fatalf("fallback TTL mix rates: %+v", res2)
	}
}

// TestRPCacheEngineTTLLapses pins the property the throughput test
// cannot assert deterministically (constant rewrites keep entries
// alive): a short-TTL entry must read as a miss once the coarse
// clock passes its expiry.
func TestRPCacheEngineTTLLapses(t *testing.T) {
	e := NewRPCache(64)
	defer e.Close()
	ts := e.(TTLSetter)
	ts.SetTTL(1, 10, 30*time.Millisecond)
	ts.SetTTL(2, 20, time.Hour)
	lookup, release := e.NewLookup()
	defer release()
	if !lookup(1) || !lookup(2) {
		t.Fatal("fresh entries missing")
	}
	// > TTL plus two 50ms coarse-clock ticks.
	deadline := time.Now().Add(5 * time.Second)
	for lookup(1) {
		if time.Now().After(deadline) {
			t.Fatal("short-TTL entry never lapsed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !lookup(2) {
		t.Fatal("long-TTL entry lapsed")
	}
}

func TestRunFigureTTLCache(t *testing.T) {
	cfg := ttlCfg()
	cfg.Readers = []int{1}
	cfg.Duration = 150 * time.Millisecond
	fig, err := RunFigure(Fig6TTLCache, cfg)
	if err != nil {
		t.Fatalf("RunFigure(6): %v", err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("figure 6 has %d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 1 || s.Points[0].Y <= 0 {
			t.Fatalf("figure 6 series %q: %+v", s.Name, s.Points)
		}
	}
}

// TestWriterGenSkew pins the workload switch: WriteSkew > 1 selects
// the Zipf stream (heavily repeated keys), otherwise uniform.
func TestWriterGenSkew(t *testing.T) {
	cfg := Config{KeySpace: 1 << 20, WriteSkew: 1.2}
	cfg.fillDefaults()
	gen := writerGen(cfg, 1)
	hits := make(map[uint64]int)
	for i := 0; i < 4096; i++ {
		hits[gen.Key()]++
	}
	maxHits := 0
	for _, n := range hits {
		if n > maxHits {
			maxHits = n
		}
	}
	// Zipf over 2^20 keys concentrates mass: the hottest key shows up
	// far more than uniform's expected ~1.
	if maxHits < 16 {
		t.Fatalf("skewed generator looks uniform: hottest key drawn %d times", maxHits)
	}

	cfg.WriteSkew = 0
	gen = writerGen(cfg, 1)
	hits = make(map[uint64]int)
	for i := 0; i < 4096; i++ {
		hits[gen.Key()]++
	}
	for _, n := range hits {
		if n > 8 {
			t.Fatalf("uniform generator drew one key %d times over a 2^20 space", n)
		}
	}
}
