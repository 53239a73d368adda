package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// The store bounds the bytes it accounts to its items, not the
// process: left at the default GC target (heap = 2× live), a server
// whose sets evict as fast as they allocate grows to twice -max-bytes
// before the collector runs. So the Go heap target follows the flag:
// the runtime's soft memory limit is derived from -max-bytes and kept
// above what the process needs.

// heapLimit derives the runtime memory limit from -max-bytes, or
// returns 0 to leave the runtime alone: no budget to follow
// (-max-bytes 0), or the operator already chose a limit (GOMEMLIMIT).
//
// The limit is the budget plus a quarter, but never less than what
// the last collection left — the live heap plus the runtime's own
// non-heap memory — plus a quarter of the live heap to allocate into
// before the next one. A cache full of small items costs more memory
// than the bytes it accounts (entry, node and key overhead); a limit
// at or under that footprint would only make the collector run
// without pause.
func heapLimit(maxBytes int64, gomemlimit string, liveHeap, overhead uint64) int64 {
	if maxBytes <= 0 || gomemlimit != "" {
		return 0
	}
	live := int64(liveHeap)
	return max(maxBytes+maxBytes/4, live+live/4+int64(overhead))
}

// followHeapLimit applies heapLimit now and again after every garbage
// collection, for the life of the process: the live heap is known
// only once a collection has marked it, and a limit refreshed on a
// timer would leave the collector cycling until the next refresh
// each time the cache outgrows the current one.
func followHeapLimit(maxBytes int64) {
	env := os.Getenv("GOMEMLIMIT")
	if heapLimit(maxBytes, env, 0, 0) == 0 {
		return
	}
	// The runtime's non-heap memory (stacks, GC metadata, its own
	// structures) is the total minus the four heap classes. Free slots
	// of in-use spans count as heap: they are where the next objects
	// go, and how many a reading finds depends on how far the sweep
	// has got.
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	var current int64
	apply := func() {
		metrics.Read(s)
		overhead := s[1].Value.Uint64()
		for _, heap := range s[2:] {
			overhead -= heap.Value.Uint64()
		}
		if limit := heapLimit(maxBytes, env, s[0].Value.Uint64(), overhead); limit != current {
			debug.SetMemoryLimit(limit)
			current = limit
		}
	}
	apply()

	// A finalizer that re-arms itself runs once per collection cycle.
	// The sentinel holds a pointer so the tiny allocator cannot batch
	// it with longer-lived objects.
	type sentinel struct{ _ *byte }
	var rearm func(*sentinel)
	rearm = func(p *sentinel) {
		apply()
		runtime.SetFinalizer(p, rearm)
	}
	runtime.SetFinalizer(new(sentinel), rearm)
}
