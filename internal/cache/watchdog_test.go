package cache

import (
	"testing"
	"time"

	"rphash/internal/obs"
)

// TestWatchdogSampleFields checks the cache's health snapshot carries
// live values from each plane: grace-period counters from the domain,
// stripe telemetry from the map, evictions from the cache.
func TestWatchdogSampleFields(t *testing.T) {
	c, _ := newManual(t, WithShards(1), WithMaxCost(4))
	for i, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		c.Set(k, "v")
		_ = i
	}
	// The evictions above queued deferred reclamation; let its grace
	// period finish, or the sample can catch the reclaimer mid-wait.
	c.Domain().Barrier()
	s := c.WatchdogSample()
	if s.StripeAcquires == 0 {
		t.Fatal("no stripe acquisitions sampled")
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions sampled despite a 4-cost budget")
	}
	if s.GraceWaiting {
		t.Fatal("GraceWaiting true with no Synchronize in flight")
	}
	if s.ResizeBacklog != 0 {
		t.Fatalf("ResizeBacklog = %d with no resize running", s.ResizeBacklog)
	}
}

// TestStartWatchdogDetectsEvictionStorm runs the full wiring — cache
// sample source, observer ring, registry — on the cache's own manual
// clock, driving detection through synchronous ticks.
func TestStartWatchdogDetectsEvictionStorm(t *testing.T) {
	o := obs.NewObserver()
	c, _ := newManual(t, WithShards(1), WithMaxCost(4), WithObserver(o))
	reg := obs.NewRegistry()
	w := c.StartWatchdog(reg, obs.WatchdogConfig{
		Interval:      time.Hour, // background loop stays out of the way
		EvictionStorm: 3,
		BundleDir:     t.TempDir(),
	})
	defer w.Stop()

	w.Tick() // baseline
	for i := 0; i < 16; i++ {
		c.SetWith(string(rune('a'+i)), "v", 0, 1)
	}
	got := w.Tick()
	if len(got) != 1 || got[0].Class != obs.AnomalyEvictionStorm {
		t.Fatalf("expected eviction storm, got %+v", got)
	}
	var found bool
	for _, e := range o.Events.Snapshot() {
		if e.Type == obs.EvWatchdog {
			found = true
		}
	}
	if !found {
		t.Fatal("watchdog trip not recorded in the cache's event ring")
	}
}
