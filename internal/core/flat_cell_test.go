package core

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"
)

// TestFlatCellLayout pins the self-boxed cell's size: the inline value
// slot took the place of the cached hash, so a cell is no larger than
// before and a hit reads the tag word and one cell, nothing else.
func TestFlatCellLayout(t *testing.T) {
	var a flatCell[uint64, uint64]
	var b flatCell[string, *int]
	if sz := unsafe.Sizeof(a); sz != 24 {
		t.Errorf("flatCell[uint64, uint64] is %d bytes, want 24", sz)
	}
	if sz := unsafe.Sizeof(b); sz != 32 {
		t.Errorf("flatCell[string, *int] is %d bytes, want 32", sz)
	}
}

// TestFlatInsertAllocatesNothing: an insert writes key and value into
// the cell itself; a replace allocates exactly the box it publishes.
func TestFlatInsertAllocatesNothing(t *testing.T) {
	const groups = 1 << 12 // 1 k inserts at load 1/4: no group spills
	tbl := newFlatT(t, WithInitialBuckets(groups), WithPolicy(Policy{MinBuckets: groups}))
	k := uint64(0)
	if a := testing.AllocsPerRun(1000, func() { k++; tbl.Insert(k, int(k)) }); a != 0 {
		t.Errorf("Insert: %v allocs/op, want 0", a)
	}
	tbl.Set(1, -1) // displace key 1's inline value (queues its one clear)
	if a := testing.AllocsPerRun(1000, func() { tbl.Set(1, 2) }); a != 1 {
		t.Errorf("replace of a boxed value: %v allocs/op, want 1", a)
	}
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

type flatPayload struct{ b [256]byte }

// setWeak stores a fresh payload under k and returns a weak pointer to
// it, keeping the only strong reference out of the caller's frame.
func setWeak(tbl *Table[uint64, *flatPayload], k uint64) weak.Pointer[flatPayload] {
	p := new(flatPayload)
	tbl.Set(k, p)
	return weak.Make(p)
}

// collectable runs every queued cleanup, then the collector, and
// reports whether w's payload was freed.
func collectable(tbl *Table[uint64, *flatPayload], w weak.Pointer[flatPayload]) bool {
	tbl.Domain().Barrier()
	for i := 0; i < 3 && w.Value() != nil; i++ {
		runtime.GC()
	}
	return w.Value() == nil
}

// TestFlatDisplacedValuesCollectable: a value that leaves the table —
// displaced from its inline slot by a replace, replaced again as a
// box, deleted, or left behind in the old view of a resize — is no
// longer reachable once the cleanups queued by those writes have run.
func TestFlatDisplacedValuesCollectable(t *testing.T) {
	tbl := NewUint64[*flatPayload](WithEngine(EngineFlat), WithInitialBuckets(1), WithPolicy(Policy{MinBuckets: 1}))
	t.Cleanup(tbl.Close)
	keep := func(k uint64, w weak.Pointer[flatPayload]) {
		t.Helper()
		if v, ok := tbl.Get(k); !ok || v == nil || v != w.Value() {
			t.Fatalf("Get(%d) = %p,%v; want the live payload", k, v, ok)
		}
	}

	w1 := setWeak(tbl, 1)
	w2 := setWeak(tbl, 1) // first replace: displaces the inline value
	if !collectable(tbl, w1) {
		t.Error("inline value displaced by a replace is still reachable")
	}
	keep(1, w2)
	w3 := setWeak(tbl, 1) // box to box
	if !collectable(tbl, w2) {
		t.Error("boxed value displaced by a replace is still reachable")
	}
	keep(1, w3)

	w4 := setWeak(tbl, 2)
	tbl.Delete(2)
	if !collectable(tbl, w4) {
		t.Error("inline value of a deleted key is still reachable")
	}
	setWeak(tbl, 3)
	w5 := setWeak(tbl, 3)
	tbl.Delete(3)
	if !collectable(tbl, w5) {
		t.Error("boxed value of a deleted key is still reachable")
	}

	w6 := setWeak(tbl, 4)
	tbl.ExpandOnce() // copies w6 into a new cell; the old view is dropped
	w7 := setWeak(tbl, 4)
	if !collectable(tbl, w6) {
		t.Error("value displaced after a resize is still reachable")
	}
	keep(4, w7)
	keep(1, w3)
	if err := tbl.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFlatInvariantsCheckValuePlacement: the checker accepts a cell
// whose val points at its own inline slot or a heap box and rejects
// one pointing into another cell, or at its own slot while that
// slot's clear is still pending.
func TestFlatInvariantsCheckValuePlacement(t *testing.T) {
	tbl := newFlatT(t, WithInitialBuckets(1), WithPolicy(Policy{MinBuckets: 1}))
	tbl.Set(1, 1) // cell 0, value inline
	tbl.Set(2, 2) // cell 1, value inline
	tbl.Set(2, 3) // cell 1, value boxed
	if err := tbl.checkInvariants(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	g := &tbl.eng.(*flatEngine[uint64, int]).view.Load().groups[0]
	c0, c1 := &g.cells[0], &g.cells[1]
	expect := func(want string) {
		t.Helper()
		if err := tbl.checkInvariants(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("checkInvariants = %v, want an error containing %q", err, want)
		}
	}

	boxed := c1.val.Load()
	c1.val.Store(&c0.inline)
	expect("another cell's inline slot")
	c1.val.Store(boxed)

	g.retiring.Or(flatClearBit << 0)
	expect("clear is pending")
	g.retiring.And(^(flatClearBit << 0))
	if err := tbl.checkInvariants(); err != nil {
		t.Fatalf("restored table rejected: %v", err)
	}
}
