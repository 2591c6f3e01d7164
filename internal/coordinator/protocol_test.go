package coordinator

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// rawWorker is a hand-driven protocol peer: a real connection to the
// service on which the test sends whatever bytes it likes.
type rawWorker struct {
	t    *testing.T
	conn net.Conn
	fc   *frameConn
}

func dialRaw(t *testing.T, addr string) *rawWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	return &rawWorker{t: t, conn: conn, fc: newFrameConn(conn)}
}

func (w *rawWorker) roundTrip(f *frame) *frame {
	w.t.Helper()
	if err := w.fc.send(f); err != nil {
		w.t.Fatalf("send %q: %v", f.Type, err)
	}
	reply, err := w.fc.recv()
	if err != nil {
		w.t.Fatalf("reply to %q: %v", f.Type, err)
	}
	return reply
}

// sendBody sends a frame body the test built by hand, behind a correct
// length prefix, and returns the reply.
func (w *rawWorker) sendBody(body []byte) *frame {
	w.t.Helper()
	if _, err := w.conn.Write(append(binary.AppendUvarint(nil, uint64(len(body))), body...)); err != nil {
		w.t.Fatalf("send: %v", err)
	}
	reply, err := w.fc.recv()
	if err != nil {
		w.t.Fatalf("reply: %v", err)
	}
	return reply
}

// bindAndLease says hello as name and takes one range.
func (w *rawWorker) bindAndLease(name string) *frame {
	w.t.Helper()
	if reply := w.roundTrip(&frame{Type: msgHello, Version: protocolVersion, Worker: name}); reply.Type != msgWelcome {
		w.t.Fatalf("hello answered %q (%s)", reply.Type, reply.Err)
	}
	grant := w.roundTrip(&frame{Type: msgLease})
	if grant.Type != msgRange {
		w.t.Fatalf("lease answered %q", grant.Type)
	}
	return grant
}

// TestMalformedCommitIsRejectedNotHalfApplied pins the strict decoder end
// to end. Confused workers commit ranges of fabricated outcomes — which
// would change the job digest if any of it were applied — in frames that
// are each wrong in one way the old JSON exchange let through or repaired:
// observation keys out of order (it dropped a key that did not parse), a
// result of an unknown kind (it made up a quarantine), bytes left over, a
// frame cut short. Every one must be answered with an error, counted, its
// range requeued, and the job must still end on the sequential digest once
// a healthy worker has served it.
func TestMalformedCommitIsRejectedNotHalfApplied(t *testing.T) {
	spec := JobSpec{Bug: "Roshi-1", Mode: "dfs", MaxInterleavings: 16, RangeSize: 2}
	wantDigest, wantExplored := sequentialBaseline(t, spec)

	reg := telemetry.New()
	root := t.TempDir()
	svc := startService(t, Options{JournalRoot: root, LeaseTTL: 500 * time.Millisecond, Telemetry: reg})
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	fabricated := func(grant *frame) []byte {
		results := make([]wireResult, len(grant.Interleavings))
		for i := range results {
			results[i] = wireResult{Attempts: 1, Outcome: &runner.Outcome{
				Converged:    true,
				Observations: map[event.ID]string{1: "made", 2: "up"},
			}}
		}
		return appendFrame(nil, &frame{Type: msgCommit, Range: grant.Range, Epoch: grant.Epoch, Results: results})
	}
	corruptions := []struct {
		name    string
		corrupt func(valid []byte) []byte
		want    string
	}{
		{"observation keys out of order", func(b []byte) []byte {
			return bytes.Replace(b, []byte("\x01\x04made\x02\x02up"), []byte("\x02\x04made\x01\x02up"), 1)
		}, "event 1 after 2"},
		{"unknown result kind", func(b []byte) []byte {
			b[4] = 9 // the first result's status
			return b
		}, "unknown result status 9"},
		{"bytes left over", func(b []byte) []byte { return append(b, 0) }, "trailing"},
		{"cut short", func(b []byte) []byte { return b[:len(b)-3] }, "truncated"},
	}
	// Every confused worker takes its own range first, so that none of them
	// is re-leased often enough to be poisoned.
	workers := make([]*rawWorker, len(corruptions))
	grants := make([]*frame, len(corruptions))
	for i, c := range corruptions {
		workers[i] = dialRaw(t, svc.Addr())
		grants[i] = workers[i].bindAndLease("confused-" + c.name)
	}
	for i, c := range corruptions {
		w := workers[i]
		valid := fabricated(grants[i])
		if _, err := decodeFrame(valid); err != nil {
			t.Fatalf("%s: the uncorrupted commit does not decode: %v", c.name, err)
		}
		reply := w.sendBody(c.corrupt(valid))
		if reply.Type != msgError || !strings.Contains(reply.Err, c.want) {
			t.Fatalf("%s: commit answered %q %q, want an error containing %q", c.name, reply.Type, reply.Err, c.want)
		}
		// The coordinator hangs up on a peer it cannot understand.
		if _, err := w.fc.recv(); err == nil {
			t.Fatalf("%s: connection still open after a malformed frame", c.name)
		}
		if got := reg.Snapshot().Counters["coordinator.commits_rejected"]; got != int64(i+1) {
			t.Fatalf("%s: commits_rejected = %d, want %d", c.name, got, i+1)
		}
	}

	// A commit that decodes but has the wrong number of results is rejected
	// the same way, with the connection kept.
	w := dialRaw(t, svc.Addr())
	grant := w.bindAndLease("short")
	if reply := w.roundTrip(&frame{Type: msgCommit, Range: grant.Range, Epoch: grant.Epoch, Results: []wireResult{{Subsumed: true}}}); reply.Type != msgError {
		t.Fatalf("short commit answered %q", reply.Type)
	}
	if got := reg.Snapshot().Counters["coordinator.commits_rejected"]; got != int64(len(corruptions)+1) {
		t.Fatalf("commits_rejected = %d after the short commit", got)
	}
	w.conn.Close()

	if err := RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: "healthy", Once: true}); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	st := waitDone(t, j)
	if st.State != StateDone || st.Explored != wantExplored || st.Quarantined != 0 {
		t.Fatalf("job ended %s with %d explored, %d quarantined; want done, %d, 0", st.State, st.Explored, st.Quarantined, wantExplored)
	}
	if st.Digest != wantDigest {
		t.Fatalf("a rejected commit reached the digest:\n distributed %s\n sequential  %s", st.Digest, wantDigest)
	}
	if st.Requeues < len(corruptions)+1 {
		t.Fatalf("requeues = %d, want every rejected range requeued (%d)", st.Requeues, len(corruptions)+1)
	}
	assertUniqueKeys(t, journalKeys(t, filepath.Join(root, j.ID())), wantExplored)
}

// TestProtocolVersionMismatch, coordinator side: a hello of another
// version — a newer one, or version 2, whose welcome still carried a
// lock-server address, or version 3, whose spec still had a Subsumption
// switch — is refused with an error naming both versions,
// whatever follows the version in it.
func TestProtocolVersionMismatch(t *testing.T) {
	svc := startService(t, Options{})
	for _, body := range [][]byte{
		appendFrame(nil, &frame{Type: msgHello, Version: protocolVersion + 1, Worker: "from-the-future"}),
		appendFrame(nil, &frame{Type: msgHello, Version: 2, Worker: "stale"}),
		appendFrame(nil, &frame{Type: msgHello, Version: 3, Worker: "stale-spec"}),
		{msgHello, 1, 0xff, 0xff}, // not even this version's grammar after the version
	} {
		reply := dialRaw(t, svc.Addr()).sendBody(body)
		if reply.Type != msgError || reply.Code != errCodeVersion {
			t.Fatalf("hello %x answered %q code %d (%s), want a version refusal", body, reply.Type, reply.Code, reply.Err)
		}
		for _, want := range []string{"peer speaks version", "this side version 4"} {
			if !strings.Contains(reply.Err, want) {
				t.Fatalf("refusal %q does not say %q", reply.Err, want)
			}
		}
	}
}

// TestWorkerStopsOnProtocolVersionMismatch, worker side: RunWorker redials
// after every other failure, but a version refusal ends it at once with
// ErrProtocolVersion — one connection, no retry loop against a coordinator
// it can never talk to.
func TestWorkerStopsOnProtocolVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dials atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			fc := newFrameConn(conn)
			if _, err := fc.recvRaw(); err == nil {
				_ = fc.send(&frame{Type: msgError, Code: errCodeVersion, Err: "peer speaks version 3, this side version 4"})
			}
			conn.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = RunWorker(ctx, WorkerOptions{Addr: ln.Addr().String(), Name: "stale", RetryInterval: time.Millisecond})
	if !errors.Is(err, ErrProtocolVersion) {
		t.Fatalf("RunWorker returned %v, want ErrProtocolVersion", err)
	}
	if !strings.Contains(err.Error(), "this side version 4") {
		t.Fatalf("error %q drops the coordinator's explanation", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("worker dialled %d times, want once", n)
	}
}

// TestOneRoundTripPerRange pins step 2 of the protocol: the reply to an
// accepted commit is the next grant, so a worker alone on a job makes one
// round trip per range plus hello, the first lease and at most the final
// telemetry flush — and a traced worker no longer reports around every
// range.
func TestOneRoundTripPerRange(t *testing.T) {
	for _, traced := range []bool{false, true} {
		reg := telemetry.New()
		svc := startService(t, Options{LeaseTTL: time.Second, Telemetry: reg})
		j, err := svc.Submit(testSpec())
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		o := WorkerOptions{Addr: svc.Addr(), Name: "w1", Once: true}
		if traced {
			o.Telemetry = telemetry.New()
			o.TelemetryInterval = time.Hour
		}
		if err := RunWorker(context.Background(), o); err != nil {
			t.Fatalf("worker: %v", err)
		}
		if st := waitDone(t, j); st.State != StateDone {
			t.Fatalf("state = %s", st.State)
		}
		c := reg.Snapshot().Counters
		ranges, requests := c["coordinator.ranges_committed"], c["coordinator.requests"]
		if ranges != testCap/8 {
			t.Fatalf("ranges committed = %d, want %d", ranges, testCap/8)
		}
		// hello + first lease + one commit per range, and with telemetry the
		// first report (due at once) and the final flush.
		want := ranges + 2
		if traced {
			want += 2
		}
		if requests != want {
			t.Fatalf("traced=%v: %d round trips for %d ranges, want %d", traced, requests, ranges, want)
		}
		if b := c["coordinator.batches"]; b < 1 || b > ranges {
			t.Fatalf("%d group commits for %d ranges", b, ranges)
		}
	}
}

// TestLeaseWaitsInsteadOfDraining: a lease that cannot be granted yet —
// the job's only range is in flight on another worker — is answered when
// that changes, not with a drain for the worker to sleep on: done, as soon
// as the holder's commit is aggregated and durable.
func TestLeaseWaitsInsteadOfDraining(t *testing.T) {
	spec := JobSpec{Bug: "Roshi-1", Mode: "dfs", MaxInterleavings: 8, RangeSize: 8}
	// A long TTL: a lease that drained and slept ttl/4 would not finish in
	// the time this test allows itself.
	svc := startService(t, Options{LeaseTTL: time.Hour})
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	holder := dialRaw(t, svc.Addr())
	grant := holder.bindAndLease("holder")

	waiter := dialRaw(t, svc.Addr())
	if reply := waiter.roundTrip(&frame{Type: msgHello, Version: protocolVersion, Worker: "waiter"}); reply.Type != msgWelcome {
		t.Fatalf("hello answered %q", reply.Type)
	}
	answered := make(chan *frame, 1)
	go func() {
		if err := waiter.fc.send(&frame{Type: msgLease}); err != nil {
			return
		}
		if reply, err := waiter.fc.recv(); err == nil {
			answered <- reply
		}
	}()
	select {
	case reply := <-answered:
		t.Fatalf("lease answered %q while the only range was in flight", reply.Type)
	case <-time.After(50 * time.Millisecond):
	}

	results := make([]wireResult, len(grant.Interleavings))
	for i := range results {
		results[i].Subsumed = true
	}
	if reply := holder.roundTrip(&frame{Type: msgCommit, Range: grant.Range, Epoch: grant.Epoch, Results: results}); reply.Type != msgDone {
		t.Fatalf("the last commit answered %q, want done", reply.Type)
	}
	select {
	case reply := <-answered:
		if reply.Type != msgDone {
			t.Fatalf("waiting lease answered %q, want done", reply.Type)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiting lease was not woken by the commit")
	}
	if st := waitDone(t, j); st.State != StateDone || st.Subsumed != 8 {
		t.Fatalf("job ended %s with %d subsumed", st.State, st.Subsumed)
	}
}
