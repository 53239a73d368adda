package obs

import (
	"context"
	"fmt"
	"io"
	"runtime/trace"
	"sort"
	"sync/atomic"
	"time"
)

// EventType classifies ring events. The A/B/C payload meaning is
// per-type; see Event.String for the rendering.
type EventType uint8

const (
	EvNone EventType = iota
	// EvExpandStart: an expansion began. A=old buckets, B=new buckets.
	EvExpandStart
	// EvExpandPublish: the doubled array and unzip window were
	// published under all stripes; lock-free readers can now land in
	// either half. A=active parent chains to unzip.
	EvExpandPublish
	// EvUnzipPass: one unzip pass over the remaining parents
	// finished. A=pass number (1-based), B=cuts made (chain) or units
	// copied (flat).
	EvUnzipPass
	// EvGraceWait: the resize waited out one grace period. A=wait ns.
	EvGraceWait
	// EvExpandDone: the expansion completed. A=passes, B=total ns.
	EvExpandDone
	// EvShrinkStart: a shrink began. A=old buckets, B=new buckets.
	EvShrinkStart
	// EvShrinkDone: the shrink completed (zip + one grace period).
	// A=total ns.
	EvShrinkDone
	// EvAutoGrow: the load policy triggered a background expansion.
	// A=len, B=buckets at trigger time.
	EvAutoGrow
	// EvAutoShrink: the load policy triggered a background shrink.
	// A=len, B=buckets at trigger time.
	EvAutoShrink
	// EvCASUndo: a lock-free fast-path insert was published, lost to a
	// concurrent resize capture, and rolled back (the write then redid
	// itself under its stripe). Rare by construction — it needs a
	// head CAS inside an all-stripes capture window.
	EvCASUndo
	// EvWatchdog: the anomaly watchdog tripped. A=anomaly class
	// (AnomalyClass), B and C are per-class detail (see Watchdog).
	EvWatchdog
)

func (t EventType) String() string {
	switch t {
	case EvExpandStart:
		return "expand_start"
	case EvExpandPublish:
		return "expand_publish"
	case EvUnzipPass:
		return "unzip_pass"
	case EvGraceWait:
		return "grace_wait"
	case EvExpandDone:
		return "expand_done"
	case EvShrinkStart:
		return "shrink_start"
	case EvShrinkDone:
		return "shrink_done"
	case EvAutoGrow:
		return "auto_grow"
	case EvAutoShrink:
		return "auto_shrink"
	case EvCASUndo:
		return "cas_undo"
	case EvWatchdog:
		return "watchdog"
	}
	return "none"
}

// Event is one decoded ring entry.
type Event struct {
	Seq   uint64 // global record order (monotone per ring)
	Nanos int64  // wall clock, unix nanoseconds
	Type  EventType
	Shard int32 // shard index, or 0 for unsharded tables
	A     int64
	B     int64
	C     int64
}

// String renders the event payload for timelines and trace logs.
func (e Event) String() string {
	switch e.Type {
	case EvExpandStart:
		return fmt.Sprintf("shard %d: expand start %d -> %d buckets", e.Shard, e.A, e.B)
	case EvExpandPublish:
		return fmt.Sprintf("shard %d: expand publish (doubled array live, %d parents to unzip)", e.Shard, e.A)
	case EvUnzipPass:
		return fmt.Sprintf("shard %d: unzip pass %d: %d cuts", e.Shard, e.A, e.B)
	case EvGraceWait:
		return fmt.Sprintf("shard %d: grace wait %v", e.Shard, time.Duration(e.A))
	case EvExpandDone:
		return fmt.Sprintf("shard %d: expand done after %d passes in %v", e.Shard, e.A, time.Duration(e.B))
	case EvShrinkStart:
		return fmt.Sprintf("shard %d: shrink start %d -> %d buckets", e.Shard, e.A, e.B)
	case EvShrinkDone:
		return fmt.Sprintf("shard %d: shrink done in %v", e.Shard, time.Duration(e.A))
	case EvAutoGrow:
		return fmt.Sprintf("shard %d: auto-grow trigger (len=%d buckets=%d)", e.Shard, e.A, e.B)
	case EvAutoShrink:
		return fmt.Sprintf("shard %d: auto-shrink trigger (len=%d buckets=%d)", e.Shard, e.A, e.B)
	case EvCASUndo:
		return fmt.Sprintf("shard %d: cas fast-path insert undone (lost to resize capture)", e.Shard)
	case EvWatchdog:
		return fmt.Sprintf("watchdog: %s anomaly (detail %d, %d)", AnomalyClass(e.A), e.B, e.C)
	}
	return fmt.Sprintf("shard %d: event %d a=%d b=%d c=%d", e.Shard, e.Type, e.A, e.B, e.C)
}

// ringSlot holds one event with every field individually atomic, so
// concurrent Record/Snapshot never race at the memory level. The
// marker is a per-slot seqlock: 0 empty, 2*seq+1 while the owner of
// ticket seq is writing, 2*seq+2 once stable. A reader that sees the
// same stable marker before and after decoding the fields has a
// consistent event; anything else is skipped.
type ringSlot struct {
	marker atomic.Uint64
	nanos  atomic.Int64
	tysh   atomic.Uint64 // EventType<<32 | uint32(shard)
	a      atomic.Int64
	b      atomic.Int64
	c      atomic.Int64
}

// Ring is a fixed-size concurrent event log. Writers claim a slot
// with one atomic increment and overwrite the oldest entry on wrap;
// Record never blocks and never allocates (unless runtime/trace is
// active, in which case each event is also logged to the trace).
//
// Two writers can only collide on a slot when one laps the other by a
// full ring — with the default 1024 slots and resize-lifecycle event
// rates, rarely. If it does happen, the slot goes to one of them and
// the other's event is dropped: the ring degrades by losing an event,
// not by fabricating one from two writers' fields.
type Ring struct {
	head  atomic.Uint64
	mask  uint64
	slots []ringSlot
}

// DefaultRingSize is the event capacity used by NewRing(0).
const DefaultRingSize = 1024

// NewRing returns a ring with capacity rounded up to a power of two
// (DefaultRingSize if n <= 0).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	capacity := 1
	for capacity < n {
		capacity <<= 1
	}
	return &Ring{mask: uint64(capacity - 1), slots: make([]ringSlot, capacity)}
}

// Record appends one event. Safe from any goroutine; never blocks.
func (r *Ring) Record(typ EventType, shard int, a, b, c int64) {
	if r == nil {
		return
	}
	seq := r.head.Add(1) - 1
	now := time.Now().UnixNano()
	r.write(seq, now, uint64(typ)<<32|uint64(uint32(int32(shard))), a, b, c)
	if trace.IsEnabled() {
		ev := Event{Seq: seq, Nanos: now, Type: typ, Shard: int32(shard), A: a, B: b, C: c}
		trace.Log(context.Background(), "rphash", ev.String())
	}
}

// write stores the event of ticket seq into its slot. The writer takes
// the slot only by moving its marker from stable-and-older to its own
// odd value, so a writer that laps a slower one never interleaves its
// stores with the slower one's: whichever finds the slot mid-write, or
// already holding a newer event, drops its own event instead.
func (r *Ring) write(seq uint64, nanos int64, tysh uint64, a, b, c int64) {
	s := &r.slots[seq&r.mask]
	m := s.marker.Load()
	if m%2 == 1 || m > 2*seq || !s.marker.CompareAndSwap(m, 2*seq+1) {
		return
	}
	s.nanos.Store(nanos)
	s.tysh.Store(tysh)
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.marker.Store(2*seq + 2)
}

// Len returns the number of events recorded so far (monotone; may
// exceed capacity once the ring wraps).
func (r *Ring) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.head.Load()
}

// Capacity returns the number of slots the ring retains.
func (r *Ring) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Overwritten returns how many events have been rotated out of the
// ring — nonzero means history is being lost to a too-small ring.
func (r *Ring) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	if h := r.head.Load(); h > r.mask+1 {
		return h - (r.mask + 1)
	}
	return 0
}

// Snapshot decodes the stable slots into events sorted by sequence
// (oldest first). Slots caught mid-write are skipped.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		m1 := s.marker.Load()
		if m1 == 0 || m1%2 == 1 {
			continue
		}
		ev := Event{
			Seq:   m1/2 - 1,
			Nanos: s.nanos.Load(),
			A:     s.a.Load(),
			B:     s.b.Load(),
			C:     s.c.Load(),
		}
		tysh := s.tysh.Load()
		ev.Type = EventType(tysh >> 32)
		ev.Shard = int32(uint32(tysh))
		if s.marker.Load() != m1 {
			continue
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump writes the captured events as a human-readable timeline with
// timestamps relative to the first retained event.
func (r *Ring) Dump(w io.Writer) {
	evs := r.Snapshot()
	if len(evs) == 0 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	t0 := evs[0].Nanos
	total := r.Len()
	if total > uint64(len(evs)) {
		fmt.Fprintf(w, "(%d events recorded, oldest %d overwritten)\n", total, total-uint64(len(evs)))
	}
	for _, e := range evs {
		fmt.Fprintf(w, "%12v  #%-6d %-14s %s\n",
			time.Duration(e.Nanos-t0).Round(time.Microsecond), e.Seq, e.Type, e)
	}
}
