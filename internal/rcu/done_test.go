package rcu

import (
	"testing"
	"time"
)

// TestDomainDone: Done is open for the domain's lifetime, closes the
// moment Close begins, and stays closed across redundant Closes — the
// prompt-shutdown signal maintenance goroutines (the cache sweeper)
// select on instead of discovering closure via a synchronous
// post-Close Defer.
func TestDomainDone(t *testing.T) {
	d := NewDomain()
	select {
	case <-d.Done():
		t.Fatal("Done() closed before Close")
	default:
	}

	waiter := make(chan struct{})
	go func() {
		<-d.Done()
		close(waiter)
	}()

	d.Close()
	select {
	case <-waiter:
	case <-time.After(2 * time.Second):
		t.Fatal("Done() not closed by Close")
	}
	d.Close() // idempotent; must not panic on a closed doneCh
	select {
	case <-d.Done():
	default:
		t.Fatal("Done() reopened?!")
	}
}
