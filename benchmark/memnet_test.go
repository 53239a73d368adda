package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func dialPair(t *testing.T, l *memListener) (client, server net.Conn) {
	t.Helper()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	return client, <-accepted
}

func TestMemListenerRoundTrip(t *testing.T) {
	l := newMemListener()
	defer l.Close()
	client, server := dialPair(t, l)

	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := server.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	if _, err := server.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if n, err = client.Read(buf); err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}

	// Closing one end ends the other's reads once drained, and fails
	// its writes.
	server.Write([]byte("bye"))
	server.Close()
	if got, err := io.ReadAll(client); err != nil || string(got) != "bye" {
		t.Fatalf("after close read %q, %v", got, err)
	}
	if _, err := client.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write after close: %v", err)
	}
}

// A writer that gets ahead of the reader by more than the queue's cap
// waits, and everything still arrives in order.
func TestMemConnBackpressure(t *testing.T) {
	l := newMemListener()
	defer l.Close()
	client, server := dialPair(t, l)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 3*memQueueCap/16)

	wrote := make(chan error, 1)
	go func() {
		_, err := client.Write(payload)
		wrote <- err
	}()
	select {
	case <-wrote:
		t.Fatal("write of three times the cap finished with no reader")
	case <-time.After(20 * time.Millisecond):
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload arrived changed")
	}
}

func TestMemListenerClose(t *testing.T) {
	l := newMemListener()
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	l.Close() // twice is harmless
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after Close: %v", err)
	}
	if _, err := l.Dial(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Dial after Close: %v", err)
	}
}
