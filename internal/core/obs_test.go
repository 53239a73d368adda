package core

import (
	"slices"
	"testing"
	"time"

	"rphash/internal/obs"
)

// idHash builds a table with the identity hash so tests can place
// keys in exact buckets.
func idHash(k uint64) uint64 { return k }

// TestResizeEventTimeline drives one deterministic expansion and one
// shrink and asserts the observer captured the complete lifecycle in
// order: start -> publish -> grace -> (pass, grace)* -> done.
func TestResizeEventTimeline(t *testing.T) {
	o := obs.NewObserver()
	tb := New[uint64, uint64](idHash,
		WithObserver(o), WithShardID(3), WithInitialBuckets(4), WithStripes(4))
	defer tb.Close()

	// Keys 0 and 4 share bucket 0 (mask 3); after doubling they split
	// into children 0 and 4, guaranteeing a zipped chain and at least
	// one unzip cut. Likewise 1 and 5.
	for _, k := range []uint64{0, 4, 1, 5} {
		tb.Set(k, k)
	}

	// The existing unzip hook fires after each pass's grace period:
	// assert the pass's events are already in the ring at that point.
	tb.testHookAfterUnzipPass = func(pass int) {
		evs := o.Events.Snapshot()
		var passes, graces int
		for _, e := range evs {
			switch e.Type {
			case obs.EvUnzipPass:
				passes++
			case obs.EvGraceWait:
				graces++
			}
		}
		if passes < pass {
			t.Errorf("hook at pass %d: only %d EvUnzipPass events captured", pass, passes)
		}
		if graces < pass+1 { // publish grace + one per pass
			t.Errorf("hook at pass %d: only %d EvGraceWait events captured", pass, graces)
		}
	}
	tb.ExpandOnce()
	tb.testHookAfterUnzipPass = nil
	tb.ShrinkOnce()

	evs := o.Events.Snapshot()
	if len(evs) == 0 {
		t.Fatal("no events captured")
	}
	for _, e := range evs {
		if e.Shard != 3 {
			t.Fatalf("event %v has shard %d, want 3", e.Type, e.Shard)
		}
	}

	// Reduce to the type sequence and check the full lifecycle shape.
	types := make([]obs.EventType, len(evs))
	for i, e := range evs {
		types[i] = e.Type
	}
	i := 0
	expect := func(want obs.EventType) obs.Event {
		t.Helper()
		if i >= len(evs) {
			t.Fatalf("event stream ended early: want %v at %d (stream %v)", want, i, types)
		}
		if types[i] != want {
			t.Fatalf("event %d = %v, want %v (stream %v)", i, types[i], want, types)
		}
		i++
		return evs[i-1]
	}

	if ev := expect(obs.EvExpandStart); ev.A != 4 || ev.B != 8 {
		t.Fatalf("expand start payload: %+v", ev)
	}
	if ev := expect(obs.EvExpandPublish); ev.A < 1 {
		t.Fatalf("expand publish should report active parents: %+v", ev)
	}
	expect(obs.EvGraceWait) // publish grace period
	passes := 0
	for types[i] == obs.EvUnzipPass {
		ev := expect(obs.EvUnzipPass)
		passes++
		if ev.A != int64(passes) || ev.B < 1 {
			t.Fatalf("unzip pass payload: %+v (want pass=%d cuts>=1)", ev, passes)
		}
		expect(obs.EvGraceWait)
	}
	if passes < 1 {
		t.Fatalf("expected at least one unzip pass (stream %v)", types)
	}
	done := expect(obs.EvExpandDone)
	if done.A != int64(passes) {
		t.Fatalf("expand done reports %d passes, want %d", done.A, passes)
	}
	if st := tb.Stats(); st.UnzipPasses != uint64(passes) {
		t.Fatalf("Stats().UnzipPasses = %d, ring saw %d", st.UnzipPasses, passes)
	}

	if ev := expect(obs.EvShrinkStart); ev.A != 8 || ev.B != 4 {
		t.Fatalf("shrink start payload: %+v", ev)
	}
	expect(obs.EvGraceWait)
	expect(obs.EvShrinkDone)
	if i != len(evs) {
		t.Fatalf("unexpected trailing events: %v", types[i:])
	}

	// The domain-level grace-wait histogram saw every one of those
	// grace periods.
	if gw := o.GraceWait.Snapshot(); gw.Count < uint64(passes+2) {
		t.Fatalf("GraceWait histogram count = %d, want >= %d", gw.Count, passes+2)
	}
}

// TestStripeWaitRecorded blocks a writer on a held stripe and asserts
// the contended wait lands in the StripeWait histogram.
func TestStripeWaitRecorded(t *testing.T) {
	o := obs.NewObserver()
	tb := New[uint64, uint64](idHash,
		WithObserver(o), WithInitialBuckets(8), WithStripes(8))
	defer tb.Close()
	tb.Set(1, 1)

	s := tb.lockHash(1) // hold key 1's stripe
	done := make(chan struct{})
	go func() {
		tb.Set(1, 2) // must wait for the stripe
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("writer did not block on the held stripe")
	default:
	}
	s.mu.Unlock()
	<-done

	sw := o.StripeWait.Snapshot()
	if sw.Count < 1 {
		t.Fatalf("StripeWait count = %d, want >= 1", sw.Count)
	}
	if sw.MaxNS < uint64((10 * time.Millisecond).Nanoseconds()) {
		t.Fatalf("StripeWait max = %dns, want >= 10ms of blocking", sw.MaxNS)
	}
}

// TestFlatResizeEvents asserts the flat engine's copy-based resize
// records the same lifecycle as the chain engine's: one migration pass
// per step, each between its two grace periods, carrying the number of
// units it copied.
func TestFlatResizeEvents(t *testing.T) {
	o := obs.NewObserver()
	tb := NewUint64[uint64](WithEngine(EngineFlat), WithObserver(o), WithInitialBuckets(64), WithStripes(4))
	defer tb.Close()
	for k := uint64(0); k < 256; k++ {
		tb.Set(k, k)
	}
	tb.ExpandOnce()
	tb.ShrinkOnce()

	var types []obs.EventType
	var copied []int64
	for _, e := range o.Events.Snapshot() {
		types = append(types, e.Type)
		if e.Type == obs.EvUnzipPass {
			if e.A != 1 {
				t.Fatalf("flat migration pass numbered %d, want 1", e.A)
			}
			copied = append(copied, e.B)
		}
	}
	want := []obs.EventType{
		obs.EvExpandStart, obs.EvExpandPublish, obs.EvGraceWait, obs.EvUnzipPass, obs.EvGraceWait, obs.EvExpandDone,
		obs.EvShrinkStart, obs.EvGraceWait, obs.EvUnzipPass, obs.EvGraceWait, obs.EvShrinkDone,
	}
	if !slices.Equal(types, want) {
		t.Fatalf("event stream %v, want %v", types, want)
	}
	// No writer runs, so the resizer copies every unit itself: all 64
	// groups when doubling to 128, and 64 units (each merging two
	// groups) when halving back.
	if copied[0] != 64 || copied[1] != 64 {
		t.Fatalf("units copied per pass = %v, want [64 64]", copied)
	}
}

// benchObsSet measures the upsert path with and without an observer
// installed; the pair is the ≤2% overhead acceptance guard for
// observability-off instrumentation.
func benchObsSet(b *testing.B, o *obs.Observer) {
	opts := []Option{WithInitialBuckets(1 << 12)}
	if o != nil {
		opts = append(opts, WithObserver(o))
	}
	tb := NewUint64[uint64](opts...)
	defer tb.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			tb.Set(i&4095, i)
			i++
		}
	})
}

func BenchmarkObsOverheadSetOff(b *testing.B) { benchObsSet(b, nil) }

func BenchmarkObsOverheadSetOn(b *testing.B) { benchObsSet(b, obs.NewObserver()) }

// BenchmarkObsOverheadSetRecorder adds the flight recorder at the
// default 1-in-1024 sampling: the delta over SetOn is the recorder's
// cost (one sampling ticket per write; a seqlock publish on the
// sampled 1/1024).
func BenchmarkObsOverheadSetRecorder(b *testing.B) {
	benchObsSet(b, obs.NewObserver(obs.WithFlightRecorder(0, 0)))
}
