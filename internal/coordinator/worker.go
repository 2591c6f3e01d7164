package coordinator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// WorkerOptions configures one worker process (or goroutine).
type WorkerOptions struct {
	// Addr is the coordinator's worker address.
	Addr string
	// Name uniquely identifies this worker across the cluster; it is half
	// of every fencing token. Defaults to "w<pid>".
	Name string
	// Job pins the worker to one job id ("" = serve whatever runs).
	Job string
	// Once returns after the first bound job finishes instead of waiting
	// for more work (tests and benchmarks).
	Once bool
	// RetryInterval is the redial/drain backoff (default 250ms).
	RetryInterval time.Duration
	// Telemetry, when set, receives the worker's execution metrics.
	Telemetry *telemetry.Registry
	// TelemetryInterval is how often the worker reports telemetry to the
	// coordinator (default 200ms; negative disables reporting). A report
	// goes out between ranges once the interval has passed, and once more
	// when the session ends, which is what makes fleet totals exact.
	TelemetryInterval time.Duration

	// Test hooks — nil in production.
	//
	// BeforeCommit runs before each range commit is sent; blocking it
	// silences the worker until its range's heartbeat deadline passes (the
	// zombie-commit chaos test).
	BeforeCommit func(rangeID int)
	// CrashAfterExecutions > 0 simulates a SIGKILL after that many
	// executions: the connection drops mid-range without a commit, and
	// RunWorker returns ErrWorkerCrashed.
	CrashAfterExecutions int
}

// ErrWorkerCrashed is returned by RunWorker when the CrashAfterExecutions
// hook fired.
var ErrWorkerCrashed = errors.New("coordinator: worker crash injected")

// errRangeAbandoned aborts the current range without failing the worker
// (fenced mid-range).
var errRangeAbandoned = errors.New("range abandoned")

// RunWorker connects to a coordinator and serves it until ctx is done:
// hello → lease ranges → execute each interleaving with full engine
// semantics (runner.Executor) → commit results, heartbeating long ranges.
// On "done" it rebinds to the next job (or returns, with Once/Job set).
// Transport errors redial; the coordinator requeues whatever was held. A
// coordinator of another protocol version ends it with ErrProtocolVersion.
func RunWorker(ctx context.Context, o WorkerOptions) error {
	if o.Addr == "" {
		return fmt.Errorf("coordinator: worker needs an Addr")
	}
	if o.Name == "" {
		o.Name = fmt.Sprintf("w%d", os.Getpid())
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = 250 * time.Millisecond
	}
	w := &worker{o: o, executed: 0}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := w.serveOnce(ctx)
		switch {
		case err == nil:
			// A job completed cleanly.
			if o.Once || o.Job != "" {
				return nil
			}
		case errors.Is(err, ErrWorkerCrashed), errors.Is(err, ErrProtocolVersion):
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			// Transport or server error: back off and redial.
			if !sleepCtx(ctx, o.RetryInterval) {
				return ctx.Err()
			}
		}
	}
}

type worker struct {
	o        WorkerOptions
	executed int // lifetime execution count (CrashAfterExecutions hook)

	// Telemetry reporting state: the tracer ring position already shipped
	// and the last report time (throttle). Survives redials — metric
	// snapshots are cumulative, so a reconnect never double-counts.
	spanMark   int
	lastReport time.Time
}

// defaultTelemetryInterval is the report throttle when WorkerOptions
// leaves TelemetryInterval zero.
const defaultTelemetryInterval = 200 * time.Millisecond

// report ships the worker's telemetry to the coordinator: cumulative
// metrics plus the span delta since the previous report.
// No-op without a registry (or with reporting disabled), and before
// TelemetryInterval has passed since the last one unless final.
func (w *worker) report(sess *session, final bool) error {
	if w.o.Telemetry == nil || w.o.TelemetryInterval < 0 {
		return nil
	}
	interval := w.o.TelemetryInterval
	if interval == 0 {
		interval = defaultTelemetryInterval
	}
	if !final && time.Since(w.lastReport) < interval {
		return nil
	}
	spans, mark := w.o.Telemetry.Tracer().SpansSince(w.spanMark)
	payload, err := json.Marshal(telemetry.WorkerReport{
		Worker:         w.o.Name,
		EpochUnixNanos: w.o.Telemetry.Tracer().Epoch().UnixNano(),
		Metrics:        w.o.Telemetry.Snapshot(),
		Spans:          spans,
	})
	if err != nil {
		return err
	}
	reply, err := sess.roundTrip(&frame{Type: msgTelemetry, Telemetry: string(payload)})
	if err != nil {
		return err
	}
	if reply.Type != msgOK {
		return fmt.Errorf("coordinator: unexpected telemetry reply %q", reply.Type)
	}
	w.spanMark = mark
	w.lastReport = time.Now()
	return nil
}

// session is one connection's lockstep transport.
type session struct {
	conn net.Conn
	fc   *frameConn
}

func dialSession(ctx context.Context, addr string) (*session, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &session{conn: conn, fc: newFrameConn(conn)}, nil
}

// roundTrip sends one frame and reads its reply. An error reply is
// returned as an error, typed when it is a protocol version refusal.
func (s *session) roundTrip(m *frame) (*frame, error) {
	if err := s.fc.send(m); err != nil {
		return nil, err
	}
	reply, err := s.fc.recv()
	if err != nil {
		return nil, err
	}
	if reply.Type == msgError {
		if reply.Code == errCodeVersion {
			return nil, fmt.Errorf("%w (coordinator: %s)", ErrProtocolVersion, reply.Err)
		}
		return nil, fmt.Errorf("coordinator: %s", reply.Err)
	}
	return reply, nil
}

// serveOnce binds to one job and serves it to completion. nil return =
// the job finished (done received); errors are transport/protocol/crash.
func (w *worker) serveOnce(ctx context.Context) error {
	sess, err := dialSession(ctx, w.o.Addr)
	if err != nil {
		return err
	}
	defer sess.conn.Close()
	// Unblock reads when ctx dies mid-roundtrip.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			sess.conn.Close()
		case <-watchDone:
		}
	}()

	// Bind to a job, waiting out drains.
	var welcome *frame
	for {
		welcome, err = sess.roundTrip(&frame{Type: msgHello, Version: protocolVersion, Worker: w.o.Name, Job: w.o.Job})
		if err != nil {
			return err
		}
		switch welcome.Type {
		case msgWelcome:
		case msgDrain:
			if !sleepCtx(ctx, retryDelay(welcome.RetryMs, w.o.RetryInterval)) {
				return ctx.Err()
			}
			continue
		case msgDone:
			return nil
		default:
			return fmt.Errorf("coordinator: unexpected hello reply %q", welcome.Type)
		}
		break
	}

	var spec JobSpec
	if err := json.Unmarshal([]byte(welcome.Spec), &spec); err != nil {
		return fmt.Errorf("coordinator: welcome carries no usable spec: %w", err)
	}
	scenario, _, err := spec.Build()
	if err != nil {
		return err
	}
	cfg := spec.Config()
	cfg.Telemetry = w.o.Telemetry
	exec, err := runner.NewExecutor(scenario, cfg)
	if err != nil {
		return err
	}

	ttl := time.Duration(welcome.LeaseTTLMs) * time.Millisecond
	if ttl <= 0 {
		ttl = 2 * time.Second
	}

	// Best-effort final flush on every exit path (done, drain, cancel,
	// transport error): reports are cumulative, so a duplicate is folded
	// idempotently, and without it the fleet view would be short of
	// whatever this worker did since its last interval report.
	defer func() { _ = w.report(sess, true) }()
	// One round trip per range: lease is sent here and after a wait or an
	// abandoned range only, because the reply to a commit is the next
	// grant.
	lease := &frame{Type: msgLease}
	reply, err := sess.roundTrip(lease)
	for {
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		switch reply.Type {
		case msgDone:
			return nil
		case msgDrain:
			if reply.RetryMs > 0 && !sleepCtx(ctx, time.Duration(reply.RetryMs)*time.Millisecond) {
				return ctx.Err()
			}
			reply, err = sess.roundTrip(lease)
			continue
		case msgRange:
		default:
			return fmt.Errorf("coordinator: unexpected lease reply %q", reply.Type)
		}
		if err := w.report(sess, false); err != nil {
			return err
		}
		reply, err = w.runRange(ctx, sess, exec, ttl, reply)
		if errors.Is(err, errRangeAbandoned) {
			reply, err = sess.roundTrip(lease)
		}
	}
}

// runRange executes one granted range and commits it. It returns the
// coordinator's reply to an accepted commit: the next grant, done, or
// drain.
func (w *worker) runRange(ctx context.Context, sess *session, exec *runner.Executor, ttl time.Duration, grant *frame) (*frame, error) {
	ils := grant.Interleavings
	results := make([]wireResult, 0, len(ils))
	lastContact := time.Now()
	for i, il := range ils {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		index := grant.Start + i
		if w.o.CrashAfterExecutions > 0 && w.executed >= w.o.CrashAfterExecutions {
			// Simulated SIGKILL: the connection just drops.
			sess.conn.Close()
			return nil, ErrWorkerCrashed
		}
		// Heartbeat long ranges so slow executions don't look like death,
		// and stream telemetry so the fleet view tracks mid-range progress.
		if time.Since(lastContact) > ttl/2 {
			hb, err := sess.roundTrip(&frame{Type: msgHeartbeat, Range: grant.Range, Epoch: grant.Epoch})
			if err != nil {
				return nil, err
			}
			lastContact = time.Now()
			if hb.Type == msgFenced {
				return nil, errRangeAbandoned
			}
			if err := w.report(sess, false); err != nil {
				return nil, err
			}
		}
		outcome, attempts, execErr := exec.Execute(ctx, il, index)
		w.executed++
		res := wireResult{Attempts: attempts}
		switch {
		case errors.Is(execErr, runner.ErrSubsumed):
			res.Subsumed = true
		case execErr != nil:
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			res.Error = execErr.Error()
		default:
			res.Outcome = outcome
		}
		results = append(results, res)
	}

	if w.o.BeforeCommit != nil {
		w.o.BeforeCommit(grant.Range)
	}
	reply, err := sess.roundTrip(&frame{Type: msgCommit, Range: grant.Range, Epoch: grant.Epoch, Results: results})
	if err != nil {
		return nil, err
	}
	switch reply.Type {
	case msgRange, msgDone, msgDrain:
		return reply, nil
	case msgFenced:
		return nil, errRangeAbandoned
	default:
		return nil, fmt.Errorf("coordinator: unexpected commit reply %q", reply.Type)
	}
}

// retryDelay picks the drain backoff: the server's hint, else the default.
func retryDelay(hintMs int64, def time.Duration) time.Duration {
	if hintMs > 0 {
		return time.Duration(hintMs) * time.Millisecond
	}
	return def
}

// sleepCtx sleeps d unless ctx dies first; reports whether it slept fully.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
