package main

import (
	"encoding/binary"

	"rphash/internal/hashfn"
	"rphash/internal/mcbench"
	"rphash/internal/workload"
)

// Operation kinds of a pre-generated stream. Library streams pack
// the kind into the low two bits of each word.
const (
	opGet uint8 = iota
	opSet
	opDel
)

// subSeed derives the seed of one generator (a connection's key
// draw, its op mix, ...) from the run seed, so that streams differ
// between connections and purposes but repeat for a given -seed.
func subSeed(seed uint64, lane int) uint64 {
	return hashfn.SplitMix64(seed*0x9e3779b97f4a7c15 + uint64(lane) + 1)
}

// keyLen is the length of every key mcbench.FormatKey renders.
const keyLen = 16

// renderKeys pre-renders the whole key space into one buffer; key i
// is tab[i*keyLen:(i+1)*keyLen]. Requests are assembled from it by
// copy, so no formatting runs inside a measured window.
func renderKeys(n int) []byte {
	tab := make([]byte, 0, n*keyLen)
	for i := 0; i < n; i++ {
		tab = append(tab, mcbench.FormatKey(uint64(i))...)
	}
	return tab
}

// fillValue writes the self-verifying value of (key, version): an
// 8-byte header naming both, then a pattern derived from the header
// repeated to the end. A value that is short, belongs to another key,
// or mixes two versions fails checkValue.
func fillValue(dst []byte, key, ver uint32) {
	hdr := uint64(key)<<32 | uint64(ver)
	pat := hashfn.SplitMix64(hdr)
	binary.LittleEndian.PutUint64(dst, hdr)
	off := 8
	for ; off+8 <= len(dst); off += 8 {
		binary.LittleEndian.PutUint64(dst[off:], pat)
	}
	for i := 0; off < len(dst); off, i = off+1, i+1 {
		dst[off] = byte(pat >> (8 * i))
	}
}

// checkValue reports the version a value carries and whether it is an
// intact value of key with the expected size.
func checkValue(v []byte, key uint32, size int) (ver uint32, ok bool) {
	if len(v) != size || size < 8 {
		return 0, false
	}
	hdr := binary.LittleEndian.Uint64(v)
	if uint32(hdr>>32) != key {
		return 0, false
	}
	pat := hashfn.SplitMix64(hdr)
	off := 8
	for ; off+8 <= len(v); off += 8 {
		if binary.LittleEndian.Uint64(v[off:]) != pat {
			return 0, false
		}
	}
	for i := 0; off < len(v); off, i = off+1, i+1 {
		if v[off] != byte(pat>>(8*i)) {
			return 0, false
		}
	}
	return uint32(hdr), true
}

// libValue is the value every library workload stores under key k.
func libValue(k uint64) uint64 { return hashfn.SplitMix64(k ^ 0x5bd1e9955bd1e995) }

// mcStream is one connection's pre-generated request sequence:
// request i is kind[i] over keys[i*width : i*width+n], n = width for
// a get and 1 for a set. The stream is cycled when a window outlasts
// it; value versions are tracked at run time, so a second pass is
// still verifiable.
type mcStream struct {
	kind  []uint8
	keys  []uint32
	width int
}

func (s *mcStream) len() int { return len(s.kind) }

func (s *mcStream) req(i int) (uint8, []uint32) {
	i %= len(s.kind)
	k := s.kind[i]
	at := i * s.width
	if k == opSet {
		return k, s.keys[at : at+1]
	}
	return k, s.keys[at : at+s.width]
}

// genMCStream draws connection conn's requests. A connection sets
// only keys whose low bit equals its index, so it knows the exact
// version of those keys whatever the other connection does; gets
// range over the whole key space.
func genMCStream(sp spec, seed uint64, conn int) *mcStream {
	var keys workload.KeyGen
	if sp.ZipfS > 0 {
		keys = workload.NewZipf(uint64(sp.Keys), sp.ZipfS, int64(subSeed(seed, 2*conn)>>1))
	} else {
		keys = workload.NewUniform(uint64(sp.Keys), subSeed(seed, 2*conn))
	}
	mix := workload.NewMix(sp.SetFrac, 0, subSeed(seed, 2*conn+1))
	s := &mcStream{
		kind:  make([]uint8, sp.StreamLen),
		keys:  make([]uint32, sp.StreamLen*sp.MultiGet),
		width: sp.MultiGet,
	}
	for i := range s.kind {
		at := i * s.width
		if mix.Op() == workload.OpInsert {
			s.kind[i] = opSet
			s.keys[at] = uint32(keys.Key())&^1 | uint32(conn)
			continue
		}
		for j := 0; j < s.width; j++ {
			s.keys[at+j] = uint32(keys.Key())
		}
	}
	return s
}

// genReadStream draws n uniform keys from [0, space).
func genReadStream(space, n int, seed uint64) []uint32 {
	g := workload.NewUniform(uint64(space), seed)
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(g.Key())
	}
	return out
}

// genChurnStream draws one grow-and-drain cycle of lib-churn for one
// goroutine: words of kind | r<<2, where r picks the get's position in
// the live window. The window is FIFO (insert at the head, delete at
// the tail), so the live keys are always [tail, head) and every op's
// legal outcome is known without a side table. The grow phase mixes
// 70% insert / 10% delete / 20% get until the window holds high keys,
// the drain phase 10 / 70 / 20 until it is back to low: 40 / 40 / 20
// over the cycle, which ends where it began and can be replayed.
func genChurnStream(low, high int, seed uint64) []uint32 {
	rng := workload.NewPRNG(subSeed(seed, 100))
	var out []uint32
	size := low
	phase := func(insFrac, delFrac float64, lane int, until func() bool) {
		mix := workload.NewMix(insFrac, delFrac, subSeed(seed, lane))
		for !until() {
			w := uint32(rng.Next()) << 2
			switch mix.Op() {
			case workload.OpInsert:
				w |= uint32(opSet)
				size++
			case workload.OpDelete:
				if size <= 1 {
					continue
				}
				w |= uint32(opDel)
				size--
			}
			out = append(out, w)
		}
	}
	phase(0.7, 0.1, 101, func() bool { return size >= high })
	phase(0.1, 0.7, 102, func() bool { return size <= low })
	return out
}
