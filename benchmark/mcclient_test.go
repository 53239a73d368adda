package main

import (
	"bufio"
	"strconv"
	"testing"
	"time"
)

// fakeServer answers single-key gets on conn with the key's version-0
// value, sleeping stall before answering request number stallAt.
func fakeServer(t *testing.T, l *memListener, sp *spec, stallAt int, stall time.Duration) {
	conn, err := l.Accept()
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	val := make([]byte, sp.ValueSize)
	for i := 0; ; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		key := line[len("get ") : len(line)-2]
		k, err := strconv.Atoi(key[len("key:"):])
		if err != nil {
			t.Errorf("bad request %q", line)
			return
		}
		if i == stallAt {
			time.Sleep(stall)
		}
		fillValue(val, uint32(k), 0)
		reply := "VALUE " + key + " 0 " + strconv.Itoa(len(val)) + "\r\n" + string(val) + "\r\nEND\r\n"
		if _, err := conn.Write([]byte(reply)); err != nil {
			return
		}
	}
}

func pacedAgainstFake(t *testing.T, stallAt int, stall time.Duration) window {
	t.Helper()
	sp := &spec{Keys: 64, ValueSize: 32, MultiGet: 1, StreamLen: 256}
	l := newMemListener()
	defer l.Close()
	go fakeServer(t, l, sp, stallAt, stall)
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := newMCConn(0, sp, nc, renderKeys(sp.Keys))
	// 2 slices of 50 ms at one request per 2 ms, first due 1 ms in.
	w, err := c.paced(genMCStream(*sp, 1, 0), time.Now(), time.Millisecond, 2*time.Millisecond, 2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if c.Failed != 0 {
		t.Fatalf("%d replies failed verification", c.Failed)
	}
	return w
}

// The schedule, not the replies, decides how many requests go out and
// which slice each belongs to.
func TestPacedSchedule(t *testing.T) {
	w := pacedAgainstFake(t, -1, 0)
	if w.sent != 50 || len(w.lat[0]) != 25 || len(w.lat[1]) != 25 {
		t.Fatalf("sent %d, per slice %d and %d; want 50, 25 and 25", w.sent, len(w.lat[0]), len(w.lat[1]))
	}
	if w.ops[0] != 25 || w.ops[1] != 25 {
		t.Fatalf("ops per slice %v, want 25 each", w.ops)
	}
}

// A stalled reply delays the requests due behind it. Their latency
// runs from when they were due, so the stall is charged to each of
// them, shrinking by one interval per request; and they are not late,
// because the generator sent each the moment it was free to.
func TestPacedChargesStallFromDueTime(t *testing.T) {
	const stall = 20 * time.Millisecond
	w := pacedAgainstFake(t, 5, stall)
	lat := w.lat[0]
	if got := time.Duration(lat[5]); got < stall {
		t.Fatalf("stalled request's latency %v, want at least %v", got, stall)
	}
	for i := 6; i <= 10; i++ {
		// Request i was due (i-5) intervals after the stalled one.
		floor := stall - time.Duration(i-5)*2*time.Millisecond
		if got := time.Duration(lat[i]); got < floor {
			t.Errorf("request %d behind the stall: latency %v, want at least %v", i, got, floor)
		}
	}
	if w.late != 0 {
		t.Errorf("%d requests counted late though the generator never held one back", w.late)
	}
	if w.sent != 50 {
		t.Errorf("sent %d, want 50: the schedule must catch up after a stall", w.sent)
	}
}

// What recordingConn kept of a server's replies, handed back by a
// cannedConn, takes a fresh client through the same requests with
// nothing failing: the generator step prices the client alone.
func TestCannedRepliesReplay(t *testing.T) {
	sp := &spec{Keys: 64, ValueSize: 32, MultiGet: 1, StreamLen: 256}
	l := newMemListener()
	defer l.Close()
	go fakeServer(t, l, sp, -1, 0)
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	tab, stream := renderKeys(sp.Keys), genMCStream(*sp, 1, 0)
	rec := &recordingConn{Conn: nc}
	if err := newMCConn(0, sp, rec, tab).step(stream, 100); err != nil {
		t.Fatal(err)
	}
	c := newMCConn(0, sp, &cannedConn{replies: rec.replies}, tab)
	if err := c.step(stream, 100); err != nil {
		t.Fatal(err)
	}
	if c.Failed != 0 || c.Hits != 100 {
		t.Fatalf("replay: %d hits, %d failed; want 100 and 0", c.Hits, c.Failed)
	}
	if err := c.step(stream, 1); err == nil {
		t.Fatal("a request past the recording got a reply")
	}
}
