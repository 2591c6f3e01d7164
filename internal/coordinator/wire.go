// Package coordinator is the distributed exploration service: it promotes
// the in-process driver (internal/runner/pool.go) into a network service
// that leases contiguous interleaving ranges to workers — local goroutines
// or remote processes — over a TCP protocol of length-prefixed binary
// frames (this file; grammar in DESIGN.md §4.11).
//
// The division of labor is the pool's: the coordinator owns enumeration
// (one explorer), dedup, the checkpoint journal, and in-order aggregation
// of results through the same runner.Ledger; workers own only execution. Ranges carry their
// interleavings inline, so workers never enumerate and the explored set is
// byte-identical to a sequential run no matter how many workers serve it,
// how they crash, or how often ranges are requeued.
//
// Crash tolerance rests on two mechanisms (DESIGN.md §4.11):
//
//   - Liveness: each granted range has a heartbeat deadline on the
//     coordinator. A worker that goes silent past it, or whose connection
//     drops, loses the range, which is requeued for another worker.
//   - Safety: each grant carries a fencing epoch, bumped on every
//     (re)lease. Commits and heartbeats quoting a stale epoch are
//     rejected, so a zombie worker that wakes up after its range was
//     requeued can never double-commit results.
package coordinator

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/wire"
)

// protocolVersion is what a hello carries. The frames are not
// self-describing, so two builds that disagree on them must find out at
// the handshake and not from a decode error mid-job. Version 1 was the
// JSON-lines protocol, which carried no version; version 2's welcome also
// carried a lock-server address for per-range leases; version 3's spec
// still had a Subsumption switch next to SubsumptionTableBytes.
const protocolVersion = 4

// ErrProtocolVersion is what RunWorker returns when the coordinator
// refused its hello because the two speak different protocol versions —
// a condition no retry can cure.
var ErrProtocolVersion = errors.New("coordinator: protocol version mismatch")

// Frame types. A frame on the wire is `uvarint length · type byte · body`,
// length counting the type byte and the body. The worker drives a strict
// request/response lockstep on its connection: every worker→coordinator
// frame gets exactly one reply.
const (
	// worker → coordinator
	msgHello     byte = 'H' // bind to a job (reply: welcome | drain | done | error)
	msgLease     byte = 'L' // request a range (reply: range | drain | done)
	msgHeartbeat byte = 'B' // extend a held range's deadline (reply: ok | fenced)
	msgCommit    byte = 'C' // deliver a range's results (reply: range | drain | done | fenced | error)
	msgTelemetry byte = 'T' // metrics/progress + span delta (reply: ok)

	// coordinator → worker
	msgWelcome byte = 'W' // hello accepted: the job's spec and lease parameters
	msgRange   byte = 'R' // a granted range with its interleavings inline
	msgDrain   byte = 'D' // nothing leasable; ask again after RetryMs (0: at once, the coordinator already waited)
	msgDone    byte = 'F' // the job is finished (or cancelled); stop serving it
	msgOK      byte = 'K' // heartbeat/telemetry accepted
	msgFenced  byte = 'X' // stale epoch: the range was requeued; discard local work
	msgError   byte = 'E' // protocol violation or server-side failure
)

// Error frame codes.
const (
	errCodeGeneric byte = 0
	errCodeVersion byte = 1 // hello refused: protocol versions differ
)

// Result status bytes of a commit frame.
const (
	statusOutcome     byte = 0
	statusSubsumed    byte = 1
	statusQuarantined byte = 2
)

// frame is one decoded protocol message. Fields are populated per Type;
// the grammar of each type is appendFrame / decodeFrame below.
type frame struct {
	Type byte

	// hello: the protocol version, the worker's unique name, and
	// optionally a specific job id to serve ("" = any running job).
	Version uint64
	Worker  string
	// hello, welcome
	Job string

	// welcome: everything the worker needs to build an identical execution
	// environment. Spec is the JobSpec as JSON — once per session, and the
	// same bytes the manifest and the jobs API carry.
	Spec       string
	LeaseTTLMs int64

	// range / heartbeat / commit: range identity plus the fencing epoch
	// the grant carried.
	Range int
	Epoch int

	// range: the global index of the first interleaving and the concrete
	// event orders to execute, all of one length.
	Start         int
	Interleavings []interleave.Interleaving

	// commit: one result per interleaving, in range order.
	Results []wireResult

	// telemetry: a telemetry.WorkerReport as JSON, opaque to the codec.
	Telemetry string

	// drain: how long the worker should wait before asking again.
	RetryMs int64

	// error: what kind, and a human-readable cause.
	Code byte
	Err  string
}

// wireResult is one interleaving's execution result. Neither its index nor
// its key travels: the coordinator carved the range and knows both.
// Error != "" marks a quarantined interleaving (execution kept failing
// after retries); the coordinator counts it and continues, exactly like
// the in-process engines. Subsumed marks an interleaving the worker's
// subsumption table pruned: no outcome and no error, but the index is
// consumed and recorded so the cap, dedup, and resume accounting match a
// non-pruning run. Otherwise Outcome is set, with Index and Interleaving
// left for the coordinator to fill in from its own ledger.
type wireResult struct {
	Outcome  *runner.Outcome
	Attempts int
	Error    string
	Subsumed bool
}

// appendFrame appends f's type byte and body to b.
func appendFrame(b []byte, f *frame) []byte {
	b = append(b, f.Type)
	switch f.Type {
	case msgHello:
		b = wire.AppendUvarint(b, f.Version)
		b = wire.AppendString(b, f.Worker)
		b = wire.AppendString(b, f.Job)
	case msgWelcome:
		b = wire.AppendString(b, f.Job)
		b = wire.AppendString(b, f.Spec)
		b = wire.AppendUvarint(b, uint64(f.LeaseTTLMs))
	case msgHeartbeat:
		b = wire.AppendUvarint(b, uint64(f.Range))
		b = wire.AppendUvarint(b, uint64(f.Epoch))
	case msgRange:
		b = wire.AppendUvarint(b, uint64(f.Range))
		b = wire.AppendUvarint(b, uint64(f.Epoch))
		b = wire.AppendUvarint(b, uint64(f.Start))
		b = wire.AppendUvarint(b, uint64(len(f.Interleavings)))
		b = wire.AppendUvarint(b, uint64(len(f.Interleavings[0])))
		for _, il := range f.Interleavings {
			for _, id := range il {
				b = wire.AppendUvarint(b, uint64(id))
			}
		}
	case msgCommit:
		b = wire.AppendUvarint(b, uint64(f.Range))
		b = wire.AppendUvarint(b, uint64(f.Epoch))
		b = wire.AppendUvarint(b, uint64(len(f.Results)))
		var reps []event.ReplicaID
		var ids []event.ID
		for i := range f.Results {
			b, reps, ids = appendResult(b, &f.Results[i], reps[:0], ids[:0])
		}
	case msgTelemetry:
		b = wire.AppendString(b, f.Telemetry)
	case msgDrain:
		b = wire.AppendUvarint(b, uint64(f.RetryMs))
	case msgError:
		b = wire.AppendUvarint(b, uint64(f.Code))
		b = wire.AppendString(b, f.Err)
	}
	return b
}

// appendResult appends one commit result: status byte, attempts, then the
// quarantine error or the outcome with both maps in key order. reps and
// ids are the caller's sort scratch, returned for reuse.
func appendResult(b []byte, res *wireResult, reps []event.ReplicaID, ids []event.ID) ([]byte, []event.ReplicaID, []event.ID) {
	switch {
	case res.Subsumed:
		b = wire.AppendUvarint(b, uint64(statusSubsumed))
		b = wire.AppendUvarint(b, uint64(res.Attempts))
	case res.Outcome == nil:
		b = wire.AppendUvarint(b, uint64(statusQuarantined))
		b = wire.AppendUvarint(b, uint64(res.Attempts))
		b = wire.AppendString(b, res.Error)
	default:
		o := res.Outcome
		b = wire.AppendUvarint(b, uint64(statusOutcome))
		b = wire.AppendUvarint(b, uint64(res.Attempts))
		b = wire.AppendBool(b, o.Converged)
		for r := range o.Fingerprints {
			reps = append(reps, r)
		}
		slices.Sort(reps)
		b = wire.AppendUvarint(b, uint64(len(reps)))
		for _, r := range reps {
			b = wire.AppendString(b, string(r))
			b = wire.AppendString(b, o.Fingerprints[r])
		}
		for id := range o.Observations {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		b = wire.AppendUvarint(b, uint64(len(ids)))
		for _, id := range ids {
			b = wire.AppendUvarint(b, uint64(id))
			b = wire.AppendString(b, o.Observations[id])
		}
		b = appendIDs(b, o.FailedOps)
		b = appendIDs(b, o.DroppedSyncs)
	}
	return b, reps, ids
}

func appendIDs(b []byte, ids []event.ID) []byte {
	b = wire.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = wire.AppendUvarint(b, uint64(id))
	}
	return b
}

func readIDs(r *wire.Reader) []event.ID {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ids := make([]event.ID, n)
	for i := range ids {
		ids[i] = event.ID(r.Int())
	}
	return ids
}

// decodeFrame decodes one frame's type byte and body. It decodes fully or
// not at all: a frame that is truncated, leaves bytes over, or is not in
// canonical form returns an error and nothing to act on. A hello of
// another protocol version fails with ErrProtocolVersion before the rest
// of its body — whose grammar that version defines — is looked at.
func decodeFrame(b []byte) (*frame, error) {
	if len(b) == 0 {
		return nil, wire.ErrTruncated
	}
	f := &frame{Type: b[0]}
	r := wire.NewReader(b[1:])
	switch f.Type {
	case msgHello:
		// Only a version that is there can differ: a hello cut short
		// inside it is truncated, not version 0.
		if v, n := binary.Uvarint(b[1:]); n > 0 && v != protocolVersion {
			return nil, fmt.Errorf("%w: peer speaks version %d, this side version %d", ErrProtocolVersion, v, protocolVersion)
		}
		f.Version = r.Uvarint()
		f.Worker = r.String()
		f.Job = r.String()
	case msgWelcome:
		f.Job = r.String()
		f.Spec = r.String()
		f.LeaseTTLMs = int64(r.Int())
	case msgHeartbeat:
		f.Range = r.Int()
		f.Epoch = r.Int()
	case msgRange:
		f.Range = r.Int()
		f.Epoch = r.Int()
		f.Start = r.Int()
		f.Interleavings = readInterleavings(r, len(b))
	case msgCommit:
		f.Range = r.Int()
		f.Epoch = r.Int()
		// The smallest result is a subsumed one: status byte + attempts.
		f.Results = make([]wireResult, r.Count(2))
		for i := range f.Results {
			readResult(r, &f.Results[i])
		}
	case msgTelemetry:
		f.Telemetry = r.String()
	case msgDrain:
		f.RetryMs = int64(r.Int())
	case msgError:
		f.Code = readByte(r, errCodeVersion, "error code")
		f.Err = r.String()
	case msgLease, msgDone, msgOK, msgFenced:
	default:
		return nil, fmt.Errorf("coordinator: unknown frame type %#x", f.Type)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("coordinator: frame %q: %w", f.Type, err)
	}
	return f, nil
}

// readByte reads a small enumeration (written as a uvarint) that must not
// exceed max.
func readByte(r *wire.Reader, max byte, what string) byte {
	v := r.Uvarint()
	if v > uint64(max) {
		r.Fail(fmt.Errorf("coordinator: unknown %s %d", what, v))
		return 0
	}
	return byte(v)
}

// readInterleavings reads a grant's `count · events-per-interleaving ·
// count × events IDs` out of a body of bodyLen bytes. A grant is never
// empty and every ID takes at least a byte, which bounds the product
// before anything is allocated.
func readInterleavings(r *wire.Reader, bodyLen int) []interleave.Interleaving {
	count, per := r.Count(1), r.Count(1)
	switch {
	case count == 0 || per == 0:
		r.Fail(fmt.Errorf("coordinator: grant of %d × %d events", count, per))
		return nil
	case count*per > bodyLen:
		r.Fail(fmt.Errorf("coordinator: grant of %d × %d events in %d bytes: %w", count, per, bodyLen, wire.ErrTruncated))
		return nil
	}
	flat := make([]event.ID, count*per)
	for i := range flat {
		flat[i] = event.ID(r.Int())
	}
	ils := make([]interleave.Interleaving, count)
	for i := range ils {
		ils[i] = flat[i*per : (i+1)*per : (i+1)*per]
	}
	return ils
}

// readResult reads what appendResult wrote, rejecting anything it would
// not have written: an unknown status, a quarantine without a cause, map
// keys that are not strictly ascending.
func readResult(r *wire.Reader, res *wireResult) {
	status := readByte(r, statusQuarantined, "result status")
	res.Attempts = r.Int()
	switch status {
	case statusSubsumed:
		res.Subsumed = true
	case statusQuarantined:
		if res.Error = r.String(); res.Error == "" {
			r.Fail(errors.New("coordinator: quarantined result without an error"))
		}
	default:
		o := &runner.Outcome{Converged: r.Bool()}
		if n := r.Count(2); n > 0 {
			o.Fingerprints = make(map[event.ReplicaID]string, n)
			prev := ""
			for i := 0; i < n; i++ {
				rep, fp := r.String(), r.String()
				if i > 0 && rep <= prev {
					r.Fail(fmt.Errorf("coordinator: fingerprint of replica %q after %q", rep, prev))
				}
				o.Fingerprints[event.ReplicaID(rep)] = fp
				prev = rep
			}
		}
		if n := r.Count(2); n > 0 {
			o.Observations = make(map[event.ID]string, n)
			prev := 0
			for i := 0; i < n; i++ {
				id, v := r.Int(), r.String()
				if i > 0 && id <= prev {
					r.Fail(fmt.Errorf("coordinator: observation of event %d after %d", id, prev))
				}
				o.Observations[event.ID(id)] = v
				prev = id
			}
		}
		o.FailedOps = readIDs(r)
		o.DroppedSyncs = readIDs(r)
		res.Outcome = o
	}
}

// maxFrame bounds one frame. Commits carry a whole range of outcomes, so
// this is generous.
const maxFrame = 16 * 1024 * 1024

// frameConn is one connection's framed transport, the same on both ends.
// The buffers are reused from frame to frame; decoded frames never alias
// them (the Reader copies every string out).
type frameConn struct {
	br      *bufio.Reader
	w       io.Writer
	in, out []byte
}

func newFrameConn(rw io.ReadWriter) *frameConn {
	return &frameConn{br: bufio.NewReader(rw), w: rw}
}

// send writes one frame in one Write: the frame is encoded behind room for
// the longest length prefix, and the prefix is put right in front of it.
func (c *frameConn) send(f *frame) error {
	var hdr [binary.MaxVarintLen64]byte
	c.out = appendFrame(append(c.out[:0], hdr[:]...), f)
	n := binary.PutUvarint(hdr[:], uint64(len(c.out)-len(hdr)))
	start := len(hdr) - n
	copy(c.out[start:], hdr[:n])
	_, err := c.w.Write(c.out[start:])
	return err
}

// errFrameSize is a length prefix no frame can have.
var errFrameSize = errors.New("coordinator: frame size out of bounds")

// recvRaw reads one frame's type byte and body into the connection's
// buffer, valid until the next read. io.EOF means the peer closed between
// frames.
func (c *frameConn) recvRaw() ([]byte, error) {
	n, err := binary.ReadUvarint(c.br)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", errFrameSize, n, maxFrame)
	}
	if uint64(cap(c.in)) < n {
		c.in = make([]byte, n)
	}
	c.in = c.in[:n]
	if _, err := io.ReadFull(c.br, c.in); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return c.in, nil
}

// recv reads and decodes one frame.
func (c *frameConn) recv() (*frame, error) {
	raw, err := c.recvRaw()
	if err != nil {
		return nil, err
	}
	return decodeFrame(raw)
}
