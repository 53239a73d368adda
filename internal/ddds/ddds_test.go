package ddds

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rphash/internal/httest"
)

func TestConformance(t *testing.T) {
	httest.RunAll(t, func(n uint64) httest.Map {
		return NewUint64[int](n)
	})
}

func TestGenParity(t *testing.T) {
	tbl := NewUint64[int](16)
	defer tbl.Close()
	if tbl.Resizing() {
		t.Fatal("fresh table reports a resize in progress")
	}
	tbl.Resize(64)
	if tbl.Resizing() {
		t.Fatal("Resizing still true after Resize returned")
	}
	if got := tbl.Buckets(); got != 64 {
		t.Fatalf("Buckets = %d, want 64", got)
	}
}

func TestResizeNoopSameSize(t *testing.T) {
	tbl := NewUint64[int](64)
	defer tbl.Close()
	g := tbl.gen.Load()
	tbl.Resize(64)
	if tbl.gen.Load() != g {
		t.Fatal("same-size Resize bumped the generation")
	}
}

// TestLookupDuringMigrationWindow pins the insert-before-unlink
// migration order: a reader that misses in the old table must find
// the key in the current table.
func TestLookupDuringMigration(t *testing.T) {
	tbl := NewUint64[int](32)
	defer tbl.Close()
	const n = 5000
	for i := uint64(0); i < n; i++ {
		tbl.Set(i, int(i))
	}

	stop := make(chan struct{})
	var misses atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			k := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				k = (k*2862933555777941757 + 3037000493) % n
				if v, ok := tbl.Get(k); !ok || v != int(k) {
					misses.Add(1)
				}
			}
		}(uint64(g + 1))
	}
	deadline := time.Now().Add(700 * time.Millisecond)
	for time.Now().Before(deadline) {
		tbl.Resize(1024)
		tbl.Resize(32)
	}
	close(stop)
	wg.Wait()
	if m := misses.Load(); m != 0 {
		t.Fatalf("%d lookups missed during migration", m)
	}
}

// TestGetInsidePublishWindow pins the schedule that lost lookups when
// Resize stamped gen only after publishing the fresh array: every Get
// runs inside Resize's publication critical section, where the fresh
// array is published and still empty. Each must find its key — not
// return a miss validated by an unchanged even stamp.
func TestGetInsidePublishWindow(t *testing.T) {
	tbl := NewUint64[int](8)
	defer tbl.Close()
	const n = 64
	for i := uint64(0); i < n; i++ {
		tbl.Set(i, int(i))
	}
	calls := 0
	tbl.afterPublish = func() {
		calls++
		// Off the resizer's goroutine: Get's fallback path takes the
		// mutex Resize holds here, so a Get that fell back must not
		// block the resizer forever.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := uint64(0); i < n; i++ {
				if v, ok := tbl.Get(i); !ok || v != int(i) {
					t.Errorf("Get(%d) inside the publish window = %d,%v; want %d,true", i, v, ok, i)
					return
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("Get inside the publish window did not return")
		}
	}
	tbl.Resize(16)
	if calls != 1 {
		t.Fatalf("publish hook ran %d times, want 1", calls)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tbl.Get(i); !ok || v != int(i) {
			t.Fatalf("Get(%d) after Resize = %d,%v", i, v, ok)
		}
	}
}

// TestWritersDuringMigration interleaves Set/Delete with an active
// incremental migration.
func TestWritersDuringMigration(t *testing.T) {
	tbl := NewUint64[int](16)
	defer tbl.Close()
	for i := uint64(0); i < 20000; i++ {
		tbl.Set(i, 1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tbl.Resize(4096)
	}()
	// Concurrent writes race the migration batches.
	for i := uint64(0); i < 20000; i += 2 {
		tbl.Set(i, 2)
	}
	for i := uint64(1); i < 20000; i += 4 {
		tbl.Delete(i)
	}
	<-done
	want := 20000 - 20000/4
	if got := tbl.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for i := uint64(0); i < 20000; i += 2 {
		if v, ok := tbl.Get(i); !ok || v != 2 {
			t.Fatalf("Get(%d) = %d,%v want 2,true", i, v, ok)
		}
	}
}

func TestRangeDedup(t *testing.T) {
	tbl := NewUint64[int](64)
	defer tbl.Close()
	for i := uint64(0); i < 200; i++ {
		tbl.Set(i, int(i))
	}
	seen := map[uint64]int{}
	tbl.Range(func(k uint64, v int) bool {
		seen[k]++
		return true
	})
	if len(seen) != 200 {
		t.Fatalf("Range saw %d keys, want 200", len(seen))
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d visited %d times", k, c)
		}
	}
}

// TestReaderProgressDuringContinuousResize is the regression test for
// the Get livelock: with a goroutine toggling the table between two
// sizes back-to-back, the unbounded generation-stamp retry loop used
// to make zero progress (every validation failed, forever). The
// bounded retry plus the announced mutex-pinned fallback guarantees
// each Get completes, so a reader must rack up lookups — with correct
// results — no matter how hot the resizer runs.
func TestReaderProgressDuringContinuousResize(t *testing.T) {
	tbl := NewUint64[int](64)
	defer tbl.Close()
	const keys = 512
	for i := uint64(0); i < keys; i++ {
		tbl.Set(i, int(i))
	}

	stop := make(chan struct{})
	var resizes atomic.Int64
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
			tbl.Resize(128)
			tbl.Resize(64)
			resizes.Add(2)
		}
	}()

	var gets atomic.Int64
	var wrong atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := i % keys
			if v, ok := tbl.Get(k); !ok || v != int(k) {
				wrong.Add(1)
			}
			gets.Add(1)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if resizes.Load() < 2 {
		t.Skipf("machine too slow to resize continuously (%d resizes)", resizes.Load())
	}
	if gets.Load() == 0 {
		t.Fatalf("reader made zero progress across %d resizes (livelock)", resizes.Load())
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d/%d lookups returned a wrong or missing value", n, gets.Load())
	}
	t.Logf("%d gets against %d resizes", gets.Load(), resizes.Load())
}
