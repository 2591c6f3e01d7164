package lockserver

import (
	"context"
	"errors"
	"testing"
	"time"
)

// deadServerClient returns a client whose server has gone away, tuned so
// the full reconnect backoff ladder takes multiple seconds — long enough
// that only an interruptible sleep lets the tests below pass quickly.
func deadServerClient(t *testing.T) *Client {
	t.Helper()
	srv := NewServer(NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// 8 attempts at 500ms doubling: ~1 minute of backoff if uninterrupted.
	c.SetReconnect(8, 500*time.Millisecond)
	return c
}

// TestContextCancelAbortsBackoff pins the satellite fix: a context
// cancelled while the client sleeps in its reconnect backoff must abort
// the request promptly instead of pinning the caller through the ladder.
func TestContextCancelAbortsBackoff(t *testing.T) {
	c := deadServerClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.WaitGEContext(ctx, "k", 1, 0)
	if err == nil {
		t.Fatal("WaitGEContext succeeded against a dead server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded in the chain", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("cancellation took %v; the backoff sleep is not context-aware", took)
	}
}

// TestCloseAbortsBackoff: tearing the client down mid-outage must wake a
// request sleeping in its backoff with ErrClientClosed. The request is
// known to be on its ladder once its first attempt has reached the fault
// hook; Close then lands in that attempt or in the backoff after it, and
// either way the next backoff must end at once.
func TestCloseAbortsBackoff(t *testing.T) {
	c := deadServerClient(t)
	attempted := make(chan struct{}, 1)
	c.SetFaultHook(func(string, []string) error {
		select {
		case attempted <- struct{}{}:
		default:
		}
		return nil
	})
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.Get("k")
		errCh <- err
	}()
	select {
	case <-attempted:
	case <-time.After(5 * time.Second):
		t.Fatal("request never made its first attempt")
	}
	start := time.Now()
	_ = c.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("error = %v, want ErrClientClosed in the chain", err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("Close took %v to abort the request", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request still pinned in backoff after Close")
	}
}
