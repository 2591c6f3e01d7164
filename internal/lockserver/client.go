package lockserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/er-pi/erpi/internal/telemetry"
)

// ErrClientClosed marks a request aborted because Close was called while
// the request was mid-backoff. Without it, a client torn down during a
// lock-server outage would pin its caller through the rest of the backoff
// ladder.
var ErrClientClosed = errors.New("lockserver: client closed")

// ErrBlockingUnsupported marks a WAITGE request rejected by a server that
// cannot serve it: one that predates the blocking wait, or, for a request
// carrying a delta, one whose WAITGE predates the delta argument. The
// server rejects it before adding anything, and the sequencer downgrades
// to INCRBY and polling for the rest of its lifetime when it sees this.
var ErrBlockingUnsupported = errors.New("lockserver: blocking wait unsupported by server")

// waitGEError maps a WAITGE error reply. A server without WAITGE answers
// "unknown command"; one whose WAITGE takes no delta answers a request
// carrying one with its arity error, "WAITGE requires …".
func waitGEError(msg string, delta bool) error {
	if strings.Contains(msg, "unknown command") || delta && strings.Contains(msg, "requires") {
		return ErrBlockingUnsupported
	}
	return errors.New(msg)
}

// FaultHook inspects an outgoing request before it reaches the wire; a
// non-nil return fails the attempt as if the server were unreachable. The
// fault package installs outage windows through this seam.
type FaultHook func(op string, args []string) error

// Client is a minimal RESP client for the lock server. Safe for concurrent
// use: requests are serialized over one connection.
//
// The client heals from connection loss: a failed request is retried with
// exponential backoff, re-dialing the server between attempts, so a
// restarting lock server degrades replay throughput instead of killing the
// run.
type Client struct {
	mu   sync.Mutex
	addr string
	// conn is written under both mu and connMu; connMu alone lets Interrupt
	// reach it while a request holds mu, parked in a read.
	conn   net.Conn
	connMu sync.Mutex
	// interrupted, guarded by connMu, marks conn as cut by Interrupt: the
	// request on it (or the next one) drops it and re-dials.
	interrupted bool
	r           *bufio.Reader
	wbuf        []byte // request framing scratch
	// reconnect policy: maxAttempts tries per request, starting at backoff
	// and doubling.
	maxAttempts int
	backoff     time.Duration
	hook        FaultHook

	// closed aborts in-flight backoff sleeps when Close is called. It is
	// managed outside mu (a request holds mu while sleeping, so Close must
	// be able to signal without acquiring it).
	closeOnce sync.Once
	closed    chan struct{}
}

// Reconnect policy defaults: 4 attempts starting at 5ms keep a transient
// server restart invisible while bounding a hard outage to ~35ms per call.
const (
	defaultMaxAttempts = 4
	defaultBackoff     = 5 * time.Millisecond
)

// Dial connects to a lock server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("lockserver: dial %s: %w", addr, err)
	}
	return &Client{
		addr:        addr,
		conn:        conn,
		r:           bufio.NewReader(conn),
		maxAttempts: defaultMaxAttempts,
		backoff:     defaultBackoff,
		closed:      make(chan struct{}),
	}, nil
}

// SetReconnect tunes the per-request retry policy: attempts total tries
// (minimum 1) with exponential backoff starting at base.
func (c *Client) SetReconnect(attempts int, base time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if attempts < 1 {
		attempts = 1
	}
	if base <= 0 {
		base = defaultBackoff
	}
	c.maxAttempts = attempts
	c.backoff = base
}

// SetFaultHook installs (or, with nil, removes) a fault-injection hook.
func (c *Client) SetFaultHook(h FaultHook) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hook = h
}

// Close shuts the connection and aborts any request sleeping in its
// reconnect backoff.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	c.mu.Lock()
	defer c.mu.Unlock()
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// longAgo is a read deadline that has always passed.
var longAgo = time.Unix(1, 0)

// Interrupt fails the request in flight at once — a WAITGE parked on the
// server included — and drops its connection, so the reply it was waiting
// for can never be read as the answer to a later request; the next
// request re-dials. With no request in flight, the next one starts on a
// fresh connection. Safe to call from any goroutine, e.g. from
// context.AfterFunc when the caller's context dies.
func (c *Client) Interrupt() {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	c.interrupted = true
	if c.conn != nil {
		_ = c.conn.SetReadDeadline(longAgo)
	}
}

// cut reports whether Interrupt has cut the connection since it was
// dialed.
func (c *Client) cut() bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.interrupted
}

// dropConn closes and forgets the connection. Callers hold c.mu.
func (c *Client) dropConn() {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	c.interrupted = false
}

// A request is a command op, then its string arguments strs, then its
// integer arguments ints. The client encodes it straight into its buffer,
// formatting no integer as a string, and builds the []string a FaultHook
// sees only when one is set. Callers keep op apart from the slices:
// escape analysis does not tell a struct's fields apart, and op, which
// error messages and the hook take, would carry the slices to the heap.

// appendRequest appends one request.
func appendRequest(dst []byte, op string, strs []string, ints []int64) []byte {
	dst = appendHeader(dst, '*', int64(1+len(strs)+len(ints)))
	dst = appendBulk(dst, op)
	for _, a := range strs {
		dst = appendBulk(dst, a)
	}
	for _, n := range ints {
		dst = appendBulkInt(dst, n)
	}
	return dst
}

// hookArgs is a request's arguments after op, as the FaultHook sees them.
func hookArgs(strs []string, ints []int64) []string {
	args := append(make([]string, 0, len(strs)+len(ints)), strs...)
	for _, n := range ints {
		args = append(args, strconv.FormatInt(n, 10))
	}
	return args
}

// do sends the request args[0] args[1:]... through the retry ladder.
func (c *Client) do(args ...string) (reply, error) {
	return c.doCtx(context.Background(), args[0], args[1:], nil)
}

// doCtx sends a request with a cancellation context: the reconnect backoff
// sleeps are interruptible by ctx and by Close, so a cancelled run (or a
// client torn down mid-outage) is never pinned through the full backoff
// ladder.
func (c *Client) doCtx(ctx context.Context, op string, strs []string, ints []int64) (reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	backoff := c.backoff
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				timer.Stop()
				return reply{}, fmt.Errorf("lockserver: %s aborted: %w (last error: %v)",
					op, ctx.Err(), lastErr)
			case <-c.closed:
				timer.Stop()
				return reply{}, fmt.Errorf("lockserver: %s aborted: %w (last error: %v)",
					op, ErrClientClosed, lastErr)
			case <-timer.C:
			}
			backoff *= 2
		}
		rep, err := c.sendLocked(ctx, op, strs, ints)
		if err == nil {
			return rep, nil
		}
		lastErr = err
	}
	return reply{}, fmt.Errorf("lockserver: %s failed after %d attempts: %w",
		op, c.maxAttempts, lastErr)
}

// sendLocked puts one request on the wire once and reads its reply: a
// dropped or interrupted connection is re-dialed first, a request whose
// ctx is done is not sent, the fault hook sees the request (exactly once
// per request sent, which is what lets a counting hook count requests),
// and any transport error or Interrupt drops the connection, because the
// stream may be desynchronized mid-reply. An error after the write began
// is ambiguous: the server may have applied the request. Callers hold
// c.mu.
func (c *Client) sendLocked(ctx context.Context, op string, strs []string, ints []int64) (reply, error) {
	if c.cut() {
		c.dropConn()
	}
	// An Interrupt from here on cuts this request. One that came earlier
	// found nothing in flight to cut, but its caller's context died before
	// it, and that stops the request here instead of letting it park.
	if err := ctx.Err(); err != nil {
		return reply{}, err
	}
	if c.hook != nil {
		if err := c.hook(op, hookArgs(strs, ints)); err != nil {
			return reply{}, err
		}
	}
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return reply{}, err
		}
		c.connMu.Lock()
		c.conn = conn
		if c.interrupted {
			_ = conn.SetReadDeadline(longAgo)
		}
		c.connMu.Unlock()
		c.r.Reset(conn)
	}
	c.wbuf = appendRequest(c.wbuf[:0], op, strs, ints)
	_, err := c.conn.Write(c.wbuf)
	var rep reply
	if err == nil {
		rep, err = readReply(c.r)
	}
	if err != nil || c.cut() {
		c.dropConn()
	}
	return rep, err
}

// Ping checks liveness.
func (c *Client) Ping() error {
	rep, err := c.do("PING")
	if err != nil {
		return err
	}
	if rep.kind != '+' || rep.str != "PONG" {
		return fmt.Errorf("lockserver: unexpected ping reply %+v", rep)
	}
	return nil
}

// Set writes key=value.
func (c *Client) Set(key, value string) error {
	rep, err := c.do("SET", key, value)
	if err != nil {
		return err
	}
	if rep.kind == '-' {
		return errors.New(rep.str)
	}
	return nil
}

// Get reads key.
func (c *Client) Get(key string) (string, bool, error) {
	rep, err := c.do("GET", key)
	if err != nil {
		return "", false, err
	}
	if rep.kind == '-' {
		return "", false, errors.New(rep.str)
	}
	if rep.isNil {
		return "", false, nil
	}
	return rep.str, true, nil
}

// Del removes key.
func (c *Client) Del(key string) (bool, error) {
	rep, err := c.do("DEL", key)
	if err != nil {
		return false, err
	}
	return rep.n == 1, nil
}

// Incr is IncrBy(key, 1).
func (c *Client) Incr(key string) (int64, error) { return c.IncrBy(key, 1) }

// IncrBy adds n to the counter at key and returns the new value. Unlike
// every other request it is sent once, outside do's retry ladder: an
// increment is not idempotent, and after an ambiguous failure (the server
// may have applied it before the reply was lost) a retry would count
// twice — for the sequencer, skip a turn and wedge its session. The error
// surfaces instead, and the caller abandons the counter: live sessions
// replay under a fresh key namespace where a stray increment cannot
// matter.
func (c *Client) IncrBy(key string, n int64) (int64, error) {
	c.mu.Lock()
	rep, err := c.sendLocked(context.Background(), "INCRBY", []string{key}, []int64{n})
	c.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("lockserver: INCRBY %s (not retried): %w", key, err)
	}
	if rep.kind == '-' {
		return 0, errors.New(rep.str)
	}
	return rep.n, nil
}

// WaitGE long-polls the server until the integer value at key (missing =
// 0) reaches at least target or the timeout elapses server-side, and
// returns the last value the server read. A sub-target return value means
// the wait timed out. The connection blocks for up to timeout, so callers
// sharing this client serialize behind the wait — give each blocking
// waiter its own client.
func (c *Client) WaitGE(key string, target int64, timeout time.Duration) (int64, error) {
	return c.WaitGEContext(context.Background(), key, target, timeout)
}

// WaitGEContext is WaitGE with a cancellation context bounding the
// reconnect backoff (see doCtx). It does not cut a parked wait short by
// itself: Interrupt does, which is what Sequencer.Interrupt is for.
func (c *Client) WaitGEContext(ctx context.Context, key string, target int64, timeout time.Duration) (int64, error) {
	rep, err := c.doCtx(ctx, "WAITGE", []string{key}, []int64{target, timeout.Milliseconds()})
	if err != nil {
		return 0, err
	}
	if rep.kind == '-' {
		return 0, waitGEError(rep.str, false)
	}
	return rep.n, nil
}

// IncrByWaitGE is a ticket lock's hand-off in one request, WAITGE key
// target timeoutMs n: the server adds n to the counter at key, waking
// whoever the new value serves, then parks the request like WaitGE until
// the value reaches target or the timeout elapses, and replies with the
// last value it read. Like IncrBy it is sent once, outside do's retry
// ladder — a retry after a lost reply would add n twice — and an error
// reply means nothing was added: ErrBlockingUnsupported from a server
// without WAITGE or whose WAITGE takes no delta. Interrupt cuts the
// parked wait short, like WaitGE's, and a ctx
// already done keeps the request off the wire.
func (c *Client) IncrByWaitGE(ctx context.Context, key string, n, target int64, timeout time.Duration) (int64, error) {
	c.mu.Lock()
	rep, err := c.sendLocked(ctx, "WAITGE", []string{key}, []int64{target, timeout.Milliseconds(), n})
	c.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("lockserver: WAITGE %s with delta %d (not retried): %w", key, n, err)
	}
	if rep.kind == '-' {
		return 0, waitGEError(rep.str, true)
	}
	return rep.n, nil
}

// Sequencer enforces a global turn order across replicas as a ticket lock:
// the shared counter is the "now serving" number, a position of the
// interleaving is a ticket, and whoever's ticket is up holds the lock until
// it advances the counter. Nobody else may advance it, which is all the
// mutual exclusion a schedule needs — and all there is: the counter has no
// lease, so a holder that dies wedges the turn until the waiters' contexts
// expire.
type Sequencer struct {
	client *Client
	key    string
	retry  time.Duration
	// noBlock disables the server-side blocking wait and the one-request
	// hand-off, latched permanently when the server rejects a WAITGE it
	// cannot serve (ErrBlockingUnsupported).
	noBlock bool

	histTurnWait *telemetry.Histogram // nil-safe: time blocked waiting for a turn
}

// NewSequencer builds a sequencer on the given counter key.
func NewSequencer(client *Client, key string, retry time.Duration) *Sequencer {
	return &Sequencer{client: client, key: key, retry: retry}
}

// Rekey moves the sequencer onto another counter, keeping its client,
// its metrics and what it has latched about the server. Call it only while
// no wait or advance is in flight.
func (s *Sequencer) Rekey(key string) { s.key = key }

// SetMetrics attaches a latency histogram recording how long each granted
// turn was waited for: by WaitTurn, or by the wait inside an Advance that
// names the holder's next turn. Call before use; nil records nothing.
func (s *Sequencer) SetMetrics(turnWait *telemetry.Histogram) {
	s.histTurnWait = turnWait
}

// Reset sets the counter to zero.
func (s *Sequencer) Reset() error {
	return s.client.Set(s.key, "0")
}

// blockingTurnChunk bounds how long one WAITGE parks on the server.
// Chunking bounds how long a dead context goes unnoticed when nobody
// calls Interrupt — the client checks it between chunks — while a ready
// turn still costs exactly one round trip.
const blockingTurnChunk = 100 * time.Millisecond

// waitChunk is how long the next WAITGE may park: blockingTurnChunk, cut to
// what is left of ctx, and 0 once ctx is done.
func waitChunk(ctx context.Context) time.Duration {
	if ctx.Err() != nil {
		return 0
	}
	if deadline, ok := ctx.Deadline(); ok {
		return max(min(blockingTurnChunk, time.Until(deadline)), 0)
	}
	return blockingTurnChunk
}

// WaitTurn blocks until the shared counter equals turn. The fast path is
// a server-side blocking WAITGE issued in ~100ms chunks: one round trip
// when the turn is ready, zero polls while it is not. Request errors
// downgrade to the polling loop — permanently for this sequencer when the
// server does not know WAITGE, for the remainder of the call otherwise —
// preserving outage tolerance: polling treats errors as transient (the
// client reconnects underneath) and continues until the context is done,
// so a lock-server outage wedges the turn — visibly, bounded by the
// caller's deadline — instead of crashing the replay. A wait parked on the
// server returns at once when Interrupt is called, with ctx's error once
// ctx is done.
func (s *Sequencer) WaitTurn(ctx context.Context, at int) error {
	return s.waitTurn(ctx, int64(at), time.Now())
}

// waitTurn is WaitTurn for a wait that started at started.
func (s *Sequencer) waitTurn(ctx context.Context, turn int64, started time.Time) error {
	for !s.noBlock {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("lockserver: wait turn %d: %w", turn, err)
		}
		cur, err := s.client.WaitGEContext(ctx, s.key, turn, waitChunk(ctx))
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return fmt.Errorf("lockserver: wait turn %d: %w", turn, ctxErr)
			}
			if errors.Is(err, ErrBlockingUnsupported) {
				s.noBlock = true
			}
			break // fall back to polling: outage or pre-WAITGE server
		}
		if done, err := s.granted(turn, cur, started); done {
			return err
		}
		// cur < turn: the chunk timed out; re-check the context and park
		// again.
	}
	return s.pollTurn(ctx, turn, started)
}

// granted reports whether the counter read as cur settles the wait for
// turn that started at started: with nil once it names turn (the wait is
// observed), with an error once it has passed it.
func (s *Sequencer) granted(turn, cur int64, started time.Time) (bool, error) {
	switch {
	case cur == turn:
		s.histTurnWait.ObserveDuration(time.Since(started))
		return true, nil
	case cur > turn:
		return true, fmt.Errorf("lockserver: turn %d already passed (at %d)", turn, cur)
	}
	return false, nil
}

// pollTurn is the 1ms-polling WaitTurn body, kept as the fallback when
// blocking waits are unavailable or erroring.
func (s *Sequencer) pollTurn(ctx context.Context, turn int64, started time.Time) error {
	// One timer for the whole wait: a lock-server outage can keep this loop
	// polling for as long as ctx lives.
	timer := time.NewTimer(s.retry)
	defer timer.Stop()
	for {
		v, ok, err := s.client.Get(s.key)
		if err == nil {
			cur := int64(0)
			if ok {
				cur, err = strconv.ParseInt(v, 10, 64)
				if err != nil {
					return fmt.Errorf("lockserver: sequencer key corrupt: %w", err)
				}
			}
			if done, err := s.granted(turn, cur, started); done {
				return err
			}
		} else if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("lockserver: wait turn %d: %w (last error: %v)", turn, ctxErr, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C: // fired and drained, so Reset is safe
			timer.Reset(s.retry)
		}
	}
}

// Interrupt cuts short the wait or request the sequencer's client has in
// flight (see Client.Interrupt). Live replay calls it when an attempt's
// context dies, so a replica parked on its turn returns at once instead of
// when its WAITGE chunk ends.
func (s *Sequencer) Interrupt() { s.client.Interrupt() }

// Advance adds n to the shared counter: the holder of turn t hands the
// schedule to turn t+n, having run the n consecutive positions it owned as
// one critical section. With next >= 0, the holder's own next turn, it
// then waits for next like WaitTurn, and the hand-off and the wait are one
// request (Client.IncrByWaitGE): the server adds n, wakes the next run's
// owner and parks this caller until the counter reaches next. If that
// chunk times out below next, the wait goes on with plain WAITGEs, which
// add nothing. Either way the increment is sent once: after a transport
// error the counter's value is unknown and the session is lost, not the
// hand-off retried. A server that rejects the request has added nothing,
// and the sequencer latches onto INCRBY followed by WaitTurn's polling.
func (s *Sequencer) Advance(ctx context.Context, n, next int) error {
	started := time.Now()
	if next >= 0 && !s.noBlock {
		cur, err := s.client.IncrByWaitGE(ctx, s.key, int64(n), int64(next), waitChunk(ctx))
		switch {
		case errors.Is(err, ErrBlockingUnsupported):
			s.noBlock = true
		case err != nil:
			return handoffErr(ctx, n, err)
		default:
			if done, err := s.granted(int64(next), cur, started); done {
				return err
			}
			return s.waitTurn(ctx, int64(next), started)
		}
	}
	if _, err := s.client.IncrBy(s.key, int64(n)); err != nil {
		return handoffErr(ctx, n, err)
	}
	if next < 0 {
		return nil
	}
	return s.waitTurn(ctx, int64(next), started)
}

// handoffErr is the error of a hand-off by n whose request failed: ctx's
// once ctx is done, because Interrupt then fails the request in flight and
// how it cut the connection says nothing, and err otherwise.
func handoffErr(ctx context.Context, n int, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("lockserver: hand-off by %d: %w", n, ctxErr)
	}
	return err
}
