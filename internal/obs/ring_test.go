package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRingBasic(t *testing.T) {
	r := NewRing(16)
	r.Record(EvExpandStart, 2, 1024, 2048, 0)
	r.Record(EvGraceWait, 2, 12345, 0, 0)
	r.Record(EvExpandDone, 2, 3, 999999, 0)
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Shard != 2 {
			t.Fatalf("event %d shard = %d, want 2", i, e.Shard)
		}
	}
	if evs[0].Type != EvExpandStart || evs[1].Type != EvGraceWait || evs[2].Type != EvExpandDone {
		t.Fatalf("wrong types: %v %v %v", evs[0].Type, evs[1].Type, evs[2].Type)
	}
	if evs[0].A != 1024 || evs[0].B != 2048 {
		t.Fatalf("payload mangled: %+v", evs[0])
	}
	if !strings.Contains(evs[1].String(), "grace wait") {
		t.Fatalf("String() = %q", evs[1].String())
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(8)
	for i := int64(0); i < 20; i++ {
		r.Record(EvUnzipPass, 0, i, 0, 0)
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("got %d events, want capacity 8", len(evs))
	}
	// The ring must retain exactly the newest 8, in order.
	for i, e := range evs {
		want := int64(12 + i)
		if e.A != want || e.Seq != uint64(want) {
			t.Fatalf("slot %d: got seq=%d a=%d, want %d", i, e.Seq, e.A, want)
		}
	}
	if r.Len() != 20 {
		t.Fatalf("Len = %d, want 20", r.Len())
	}
}

// TestRingConcurrentWraparound races many writers wrapping the ring
// against snapshot readers; run with -race. Every decoded event must
// be internally consistent (payload matches its sequence number).
func TestRingConcurrentWraparound(t *testing.T) {
	r := NewRing(64)
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range r.Snapshot() {
					// Writers encode their seq into every payload
					// slot; a mixed-up (torn) event would disagree.
					if e.A != int64(e.Seq) || e.B != int64(e.Seq)*2 {
						t.Errorf("torn event: %+v", e)
						return
					}
				}
			}
		}()
	}
	var rec sync.WaitGroup
	for w := 0; w < workers; w++ {
		rec.Add(1)
		go func() {
			defer rec.Done()
			for i := 0; i < perWorker; i++ {
				recordSeqLinked(r)
			}
		}()
	}
	rec.Wait()
	close(stop)
	wg.Wait()
	if r.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", r.Len(), workers*perWorker)
	}
}

// recordSeqLinked records an event whose payload is derived from its
// own ticket, so readers can verify slots decode consistently. It
// claims the ticket itself, as Ring.Record does, to know it.
func recordSeqLinked(r *Ring) {
	seq := r.head.Add(1) - 1
	r.write(seq, int64(seq), uint64(EvUnzipPass)<<32, int64(seq), int64(seq)*2, 0)
}

func TestRingDump(t *testing.T) {
	r := NewRing(8)
	for i := int64(0); i < 12; i++ {
		r.Record(EvGraceWait, 1, 1000*i, 0, 0)
	}
	var sb strings.Builder
	r.Dump(&sb)
	out := sb.String()
	if !strings.Contains(out, "grace_wait") {
		t.Fatalf("dump missing event name:\n%s", out)
	}
	if !strings.Contains(out, "oldest 4 overwritten") {
		t.Fatalf("dump missing overwrite note:\n%s", out)
	}
}

func TestRingNilSafe(t *testing.T) {
	var r *Ring
	r.Record(EvGraceWait, 0, 1, 2, 3)
	if r.Snapshot() != nil || r.Len() != 0 {
		t.Fatal("nil ring should be inert")
	}
}

func BenchmarkRingRecord(b *testing.B) {
	r := NewRing(1024)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Record(EvGraceWait, 0, 1234, 0, 0)
		}
	})
}
