package core

import (
	"math"
	"math/bits"
	"sync"
	"testing"
)

// scanEngines runs f once per bucket engine on a table pinned at
// `buckets` units (no auto-resize), so unit counts are known.
func scanEngines(t *testing.T, buckets uint64, f func(t *testing.T, tbl *Table[uint64, int])) {
	for _, eng := range []string{EngineChain, EngineFlat} {
		t.Run(eng, func(t *testing.T) {
			f(t, newT(t, WithEngine(eng), WithInitialBuckets(buckets), WithPolicy(Policy{MinBuckets: 64})))
		})
	}
}

// scanWrapped reports whether a ScanFrom call that was given cur and
// returned next passed the end of the traversal order: cursors read
// as bit-reversed fractions, and within a cycle they only grow.
func scanWrapped(cur, next uint64) bool {
	return bits.Reverse64(next) <= bits.Reverse64(cur)
}

// TestScanFromFullCycle: with no concurrent resize, a full cycle from
// any cursor — one uncapped call, or capped calls chained through the
// returned cursor — visits every element exactly once.
func TestScanFromFullCycle(t *testing.T) {
	const buckets, n = 256, 1000
	scanEngines(t, buckets, func(t *testing.T, tbl *Table[uint64, int]) {
		fill(tbl, n)
		for _, start := range []uint64{0, 1, 255, 256, 12345, math.MaxUint64} {
			for _, maxUnits := range []int{math.MaxInt, 8, 1, 0} {
				seen := make(map[uint64]int, n)
				calls, want := 0, buckets/max(maxUnits, 1)
				if maxUnits > buckets {
					want = 1
				}
				cur := start
				for ; calls < want; calls++ {
					cur = tbl.ScanFrom(cur, maxUnits, func(k uint64, v int) bool {
						if v != int(k) {
							t.Fatalf("key %d carried value %d", k, v)
						}
						seen[k]++
						return true
					})
				}
				if cur != start&(buckets-1) {
					t.Fatalf("start %d cap %d: cursor after a full cycle = %d, want %d", start, maxUnits, cur, start&(buckets-1))
				}
				if len(seen) != n {
					t.Fatalf("start %d cap %d: visited %d distinct keys, want %d", start, maxUnits, len(seen), n)
				}
				for k, c := range seen {
					if c != 1 {
						t.Fatalf("start %d cap %d: key %d visited %d times", start, maxUnits, k, c)
					}
				}
			}
		}
	})
}

// TestScanFromStoppedByFn: a scan fn cuts short resumes at the bucket
// it stopped in, so chained calls still reach every element, and each
// call advances even when fn stops it in its first bucket.
func TestScanFromStoppedByFn(t *testing.T) {
	const buckets, n = 64, 1000 // ~16 elements per unit: most stops are mid-unit
	scanEngines(t, buckets, func(t *testing.T, tbl *Table[uint64, int]) {
		fill(tbl, n)
		for _, budget := range []int{1, 5, 40} {
			seen := make(map[uint64]bool, n)
			cur, wraps := uint64(7), 0
			for calls := 0; wraps < 2; calls++ {
				if calls > 2*n {
					t.Fatalf("budget %d: no full cycle after %d calls", budget, calls)
				}
				left := budget
				next := tbl.ScanFrom(cur, math.MaxInt, func(k uint64, _ int) bool {
					seen[k] = true
					left--
					return left > 0
				})
				if next == cur {
					t.Fatalf("budget %d: call from cursor %d made no progress", budget, cur)
				}
				if scanWrapped(cur, next) {
					wraps++
				}
				cur = next
			}
			// A budget below the unit size skips the tail of each
			// unit it stops in first (the documented progress rule);
			// a budget above it must not lose anything.
			if budget == 40 && len(seen) != n {
				t.Fatalf("budget %d: visited %d distinct keys, want %d", budget, len(seen), n)
			}
		}
	})
}

// TestScanFromUnderResize: while the table resizes without pause, an
// uncapped call still terminates and sees every stable element (it is
// one snapshot, like Range), and a capped multi-call cycle — reader
// section left between calls, unit count changing under the cursor —
// terminates and sees every stable element at least once too.
func TestScanFromUnderResize(t *testing.T) {
	const n = 4096
	scanEngines(t, 64, func(t *testing.T, tbl *Table[uint64, int]) {
		fill(tbl, n)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tbl.Resize(1024)
				tbl.Resize(64)
			}
		}()
		defer wg.Wait()
		defer close(stop)

		check := func(what string, seen map[uint64]bool) {
			t.Helper()
			if len(seen) != n {
				t.Fatalf("%s: visited %d distinct keys, want %d", what, len(seen), n)
			}
		}
		visit := func(seen map[uint64]bool) func(uint64, int) bool {
			return func(k uint64, v int) bool {
				if k >= n || v != int(k) {
					t.Errorf("bogus element (%d, %d)", k, v)
					return false
				}
				seen[k] = true
				return true
			}
		}
		for pass := 0; pass < 20 && !t.Failed(); pass++ {
			seen := make(map[uint64]bool, n)
			tbl.ScanFrom(uint64(pass)*977, math.MaxInt, visit(seen))
			check("uncapped call", seen)

			seen = make(map[uint64]bool, n)
			cur := uint64(0)
			for calls := 0; ; calls++ {
				if calls > 4096 {
					t.Fatal("capped cycle did not terminate")
				}
				next := tbl.ScanFrom(cur, 16, visit(seen))
				if scanWrapped(cur, next) {
					break
				}
				cur = next
			}
			check("capped cycle", seen)
		}
	})
}

// TestRangeChunkedUnderResize: the chunked traversal's cursor
// survives resizes between chunks — a traversal overlapping continuous
// resizing terminates, reports only elements that were inserted, and
// reports every stable element at least once, on both engines.
func TestRangeChunkedUnderResize(t *testing.T) {
	const n = 4096
	scanEngines(t, 64, func(t *testing.T, tbl *Table[uint64, int]) {
		fill(tbl, n)
		var wg sync.WaitGroup
		wg.Add(1)
		stop := make(chan struct{})
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tbl.Resize(1024)
				tbl.Resize(64)
			}
		}()
		for pass := 0; pass < 10; pass++ {
			seen := make(map[uint64]bool, n)
			tbl.RangeChunked(16, func(k uint64, v int) bool {
				if k >= n || v != int(k) {
					t.Errorf("bogus element (%d, %d)", k, v)
					return false
				}
				seen[k] = true
				return true
			})
			if len(seen) != n {
				t.Errorf("pass %d: visited %d distinct keys, want %d", pass, len(seen), n)
				break
			}
		}
		close(stop)
		wg.Wait()
	})
}

// unitCounter wraps a table's engine to record how many units each
// reader section's snapshot was asked to scan.
type unitCounter struct {
	engine[uint64, int]
	sections, maxUnits, units int
}

type countedView struct {
	unitView[uint64, int]
	c *unitCounter
}

func (c *unitCounter) snapshot() unitView[uint64, int] {
	c.sections++
	c.units = 0
	return countedView{c.engine.snapshot(), c}
}

func (v countedView) scanUnit(u uint64, fn func(uint64, int) bool) bool {
	v.c.units++
	v.c.maxUnits = max(v.c.maxUnits, v.c.units)
	return v.unitView.scanUnit(u, fn)
}

// TestScanSectionsBounded: on a mostly empty bucket array no reader
// section of RangeChunked or ScanFrom walks more units than its cap,
// however few elements it finds.
func TestScanSectionsBounded(t *testing.T) {
	const buckets, chunk = 1 << 14, 16
	scanEngines(t, buckets, func(t *testing.T, tbl *Table[uint64, int]) {
		fill(tbl, 4)
		c := &unitCounter{engine: tbl.eng}
		tbl.eng = c

		seen := 0
		tbl.RangeChunked(chunk, func(uint64, int) bool { seen++; return true })
		if seen != 4 {
			t.Fatalf("RangeChunked visited %d elements, want 4", seen)
		}
		if c.maxUnits > rangeChunkUnits*chunk || c.sections < buckets/(rangeChunkUnits*chunk) {
			t.Fatalf("RangeChunked: %d sections, largest %d units; want <= %d units each", c.sections, c.maxUnits, rangeChunkUnits*chunk)
		}

		*c = unitCounter{engine: c.engine}
		tbl.ScanFrom(99, 100, func(uint64, int) bool { return true })
		if c.sections != 1 || c.maxUnits != 100 {
			t.Fatalf("ScanFrom(cap 100): %d sections, %d units", c.sections, c.maxUnits)
		}
	})
}
