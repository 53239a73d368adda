package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// mcConn is one generator connection: it renders requests from the
// pre-generated stream, sends one at a time, and verifies every
// reply. It allocates nothing per request.
type mcConn struct {
	id  int
	sp  *spec
	nc  net.Conn
	r   *bufio.Reader
	tab []byte // renderKeys(sp.Keys)
	req []byte

	// ver[k] is the newest version this connection has set for key k,
	// 0 for the preloaded value. For keys only this connection writes
	// it is the one version a hit may return.
	ver []uint32

	pos int // next request of the stream

	tally
}

// tally counts what a connection attempted and what came back. An op
// is one key: a multi-get of 32 keys is 32 ops.
type tally struct {
	Ops     uint64 // keys fetched or stored
	Failed  uint64 // wrong, short, corrupt or errored replies, and illegal misses
	GetKeys uint64 // keys asked for; the server's hits+misses must equal this
	Sets    uint64 // the server's cmd_set must equal this
	Hits    uint64
}

func (t *tally) add(o tally) {
	t.Ops += o.Ops
	t.Failed += o.Failed
	t.GetKeys += o.GetKeys
	t.Sets += o.Sets
	t.Hits += o.Hits
}

func newMCConn(id int, sp *spec, nc net.Conn, tab []byte) *mcConn {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &mcConn{
		id: id, sp: sp, nc: nc, tab: tab,
		r:   bufio.NewReaderSize(nc, 64<<10),
		req: make([]byte, 0, 64<<10),
		ver: make([]uint32, sp.Keys),
	}
}

func (c *mcConn) key(k uint32) []byte { return c.tab[int(k)*keyLen : (int(k)+1)*keyLen] }

// exact reports whether this connection knows the one version key k
// may hold: always when nobody sets, else only for the keys it owns.
func (c *mcConn) exact(k uint32) bool { return c.sp.SetFrac == 0 || int(k&1) == c.id }

var errProtocol = errors.New("unexpected reply")

// do sends one request and reads its reply. A reply that is wrong
// counts in Failed; an error means the connection is unusable.
func (c *mcConn) do(kind uint8, keys []uint32) error {
	if kind == opSet {
		return c.set(keys[0])
	}
	req := append(c.req[:0], "get"...)
	for _, k := range keys {
		req = append(req, ' ')
		req = append(req, c.key(k)...)
	}
	req = append(req, '\r', '\n')
	if _, err := c.nc.Write(req); err != nil {
		return err
	}
	c.GetKeys += uint64(len(keys))
	c.Ops += uint64(len(keys))

	// The server answers hits in request order and skips misses.
	next := 0
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		if bytes.Equal(line, []byte("END\r\n")) {
			break
		}
		k, size, ok := parseValueLine(line)
		if !ok {
			return fmt.Errorf("%w: %q", errProtocol, line)
		}
		body, err := c.r.Peek(size + 2)
		if err != nil {
			return err
		}
		for next < len(keys) && keys[next] != k {
			c.miss()
			next++
		}
		if next == len(keys) {
			c.Failed++ // a key that was not asked for
		} else {
			next++
			c.Hits++
			ver, ok := checkValue(body[:size], k, c.sp.ValueSize)
			if !ok || body[size] != '\r' || body[size+1] != '\n' || (c.exact(k) && ver != c.ver[k]) {
				c.Failed++
			}
		}
		c.r.Discard(size + 2)
	}
	for ; next < len(keys); next++ {
		c.miss()
	}
	return nil
}

func (c *mcConn) miss() {
	if !c.sp.MissLegal {
		c.Failed++
	}
}

func (c *mcConn) set(k uint32) error {
	c.ver[k]++
	req := c.appendSet(c.req[:0], k, c.ver[k], false)
	if _, err := c.nc.Write(req); err != nil {
		return err
	}
	c.Sets++
	c.Ops++
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	if !bytes.Equal(line, []byte("STORED\r\n")) {
		c.Failed++
	}
	return nil
}

func (c *mcConn) appendSet(req []byte, k, ver uint32, noreply bool) []byte {
	req = append(req, "set "...)
	req = append(req, c.key(k)...)
	req = append(req, " 0 0 "...)
	req = strconv.AppendInt(req, int64(c.sp.ValueSize), 10)
	if noreply {
		req = append(req, " noreply"...)
	}
	req = append(req, '\r', '\n')
	n := len(req)
	req = append(req, make([]byte, c.sp.ValueSize)...)
	fillValue(req[n:], k, ver)
	return append(req, '\r', '\n')
}

// parseValueLine reads "VALUE key:<12 digits> <flags> <bytes>\r\n".
func parseValueLine(line []byte) (key uint32, size int, ok bool) {
	const head = len("VALUE key:")
	if len(line) < head+12+4 || string(line[:head]) != "VALUE key:" {
		return 0, 0, false
	}
	k, err := strconv.ParseUint(string(line[head:head+12]), 10, 32)
	if err != nil {
		return 0, 0, false
	}
	rest := bytes.TrimSuffix(line[head+12:], []byte("\r\n"))
	i := bytes.LastIndexByte(rest, ' ')
	if i < 0 {
		return 0, 0, false
	}
	size, err = strconv.Atoi(string(rest[i+1:]))
	if err != nil || size < 0 || size > 1<<20 {
		return 0, 0, false
	}
	return uint32(k), size, true
}

// preload stores keys [from, to) at version 0 with noreply sets, a
// buffer at a time, then confirms the server has consumed them all by
// fetching the last one. The stored count is cross-checked against
// the server's own counters after the run.
func (c *mcConn) preload(from, to int) error {
	if from >= to {
		return nil
	}
	buf := make([]byte, 0, 256<<10)
	for k := from; k < to; k++ {
		buf = c.appendSet(buf, uint32(k), 0, true)
		c.Sets++
		if len(buf) >= 192<<10 || k == to-1 {
			if _, err := c.nc.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	before := c.tally
	last := []uint32{uint32(to - 1)}
	if err := c.do(opGet, last); err != nil {
		return err
	}
	if c.Failed != before.Failed || c.Hits != before.Hits+1 {
		return fmt.Errorf("preload: key %d not readable after preload", to-1)
	}
	return nil
}

// step runs the next n requests of the stream, closed loop.
func (c *mcConn) step(s *mcStream, n int) error {
	for i := 0; i < n; i++ {
		kind, keys := s.req(c.pos)
		c.pos++
		if err := c.do(kind, keys); err != nil {
			return err
		}
	}
	return nil
}

// window is what one connection measured in one window.
type window struct {
	// Per slice: ops completed, the slice's true length, and latency
	// samples in ns (paced: every request, from its due time;
	// saturation: every get, from its send; library: the lookups among
	// one op in sampleEvery).
	ops  []uint64
	span []time.Duration
	lat  [][]int64
	sent uint64
	late uint64 // requests the generator itself sent more than lateAfter late
}

const lateAfter = time.Millisecond

// saturate runs the stream closed loop from start for slices×per,
// recording per slice the ops and every get's latency (the next
// request leaves when the reply arrives, so one clock read serves
// both). Sets are left out: in a half-and-half mix of fast gets and
// slow sets the median request is whichever kind is one ahead. A slice ends at the first reply at or after its boundary, so
// its true span is recorded with it.
func (c *mcConn) saturate(s *mcStream, start time.Time, slices int, per time.Duration) (window, error) {
	w := window{lat: make([][]int64, 1, slices)}
	sliceStart, sent := start, start
	var ops uint64
	for {
		kind, keys := s.req(c.pos)
		c.pos++
		before := c.Ops
		if err := c.do(kind, keys); err != nil {
			return w, err
		}
		ops += c.Ops - before
		now := time.Now()
		if kind == opGet {
			cur := len(w.lat) - 1
			w.lat[cur] = append(w.lat[cur], int64(now.Sub(sent)))
		}
		sent = now
		if now.Sub(start) >= time.Duration(len(w.ops)+1)*per {
			w.ops = append(w.ops, ops)
			w.span = append(w.span, now.Sub(sliceStart))
			sliceStart, ops = now, 0
			if len(w.ops) == slices {
				return w, nil
			}
			w.lat = append(w.lat, nil)
		}
	}
}

// paced sends request i at start + phase + i×interval, one in flight:
// a reply still outstanding at the next due time delays that request,
// and because latency runs from the due time, not the send time, the
// delay is charged to it. A request is late when the generator itself
// held it back: sent more than lateAfter past the moment it was both
// due and free to go.
func (c *mcConn) paced(s *mcStream, start time.Time, phase, interval time.Duration, slices int, per time.Duration) (window, error) {
	w := window{lat: make([][]int64, slices), ops: make([]uint64, slices)}
	perSlice := int(per/interval) + 1
	for i := range w.lat {
		w.lat[i] = make([]int64, 0, perSlice)
	}
	total := time.Duration(slices) * per
	free := start // when the previous reply arrived
	for i := 0; ; i++ {
		off := phase + time.Duration(i)*interval
		if off >= total {
			return w, nil
		}
		due := start.Add(off)
		sleepUntil(due)
		if free.Before(due) {
			free = due
		}
		if time.Since(free) > lateAfter {
			w.late++
		}
		kind, keys := s.req(c.pos)
		c.pos++
		before := c.Ops
		if err := c.do(kind, keys); err != nil {
			return w, err
		}
		free = time.Now()
		sl := int(off / per)
		w.sent++
		w.ops[sl] += c.Ops - before
		w.lat[sl] = append(w.lat[sl], int64(free.Sub(due)))
	}
}
