package main

import (
	"io"
	"net"
	"sync"
	"time"
)

// memListener is a net.Listener whose connections are pairs of
// in-process byte queues. The ledger serves memcache.Server on one to
// price the protocol layer with no kernel underneath; the socket
// layer's self time is then loopback TCP minus this.
type memListener struct {
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once
}

func newMemListener() *memListener {
	return &memListener{accept: make(chan net.Conn), done: make(chan struct{})}
}

// Dial returns the client end of a new connection once the server has
// accepted the other end.
func (l *memListener) Dial() (net.Conn, error) {
	up, down := newMemQueue(), newMemQueue()
	client := &memConn{rd: down, wr: up}
	server := &memConn{rd: up, wr: down}
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memQueueCap bounds one direction's buffered bytes; a writer that
// would exceed it waits for the reader, as a full socket buffer would
// make it.
const memQueueCap = 1 << 20

// memQueue is one direction of a connection.
type memQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []byte
	off    int // buf[off:] is unread
	closed bool
}

func newMemQueue() *memQueue {
	q := &memQueue{}
	q.cond.L = &q.mu
	return q
}

func (q *memQueue) write(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for len(p) > 0 {
		for !q.closed && len(q.buf)-q.off >= memQueueCap {
			q.cond.Wait()
		}
		if q.closed {
			return n, io.ErrClosedPipe
		}
		if q.off == len(q.buf) {
			q.buf, q.off = q.buf[:0], 0
		} else if q.off >= memQueueCap {
			// Never fully drained: drop the read prefix so the buffer
			// stays within twice the cap.
			q.buf, q.off = q.buf[:copy(q.buf, q.buf[q.off:])], 0
		}
		room := min(memQueueCap-(len(q.buf)-q.off), len(p))
		q.buf = append(q.buf, p[:room]...)
		p = p[room:]
		n += room
		q.cond.Broadcast()
	}
	return n, nil
}

func (q *memQueue) read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.off == len(q.buf) {
		if q.closed {
			return 0, io.EOF
		}
		q.cond.Wait()
	}
	n := copy(p, q.buf[q.off:])
	q.off += n
	q.cond.Broadcast()
	return n, nil
}

func (q *memQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// memConn is one end of a connection. Deadlines are accepted and
// ignored: nothing that runs on it sets one.
type memConn struct {
	rd, wr *memQueue
}

func (c *memConn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.wr.write(p) }

func (c *memConn) Close() error {
	c.rd.close()
	c.wr.close()
	return nil
}

func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }
