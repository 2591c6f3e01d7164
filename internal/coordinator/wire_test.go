package coordinator

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/wire"
)

// sampleFrames is one valid frame of every type, plus the shapes the
// grammar branches on: a fuzz-mode grant (cut short at a generation
// boundary, not in lexicographic order) and a commit carrying all three
// result kinds. The committed corpus under testdata/fuzz/FuzzDecodeFrame
// is these, encoded.
func sampleFrames() map[string]*frame {
	outcome := &runner.Outcome{
		Converged:    true,
		Fingerprints: map[event.ReplicaID]string{"A": "fp-a", "B": "fp-b", "sink": ""},
		Observations: map[event.ID]string{0: "", 3: "x", 200: "a longer value \x00 with a NUL"},
		FailedOps:    []event.ID{7, 2},
		DroppedSyncs: []event.ID{5},
	}
	return map[string]*frame{
		"hello":     {Type: msgHello, Version: protocolVersion, Worker: "w1", Job: "job-001"},
		"hello-any": {Type: msgHello, Version: protocolVersion, Worker: "w"},
		"welcome":   {Type: msgWelcome, Job: "job-001", Spec: `{"bug":"Roshi-1"}`, LeaseTTLMs: 2000},
		"lease":     {Type: msgLease},
		"heartbeat": {Type: msgHeartbeat, Range: 3, Epoch: 2},
		"range": {Type: msgRange, Range: 1, Epoch: 1, Start: 1, Interleavings: []interleave.Interleaving{
			{0, 1, 2, 3}, {0, 1, 3, 2}, {0, 2, 1, 3},
		}},
		"range-fuzz": {Type: msgRange, Range: 40, Epoch: 3, Start: 1281, Interleavings: []interleave.Interleaving{
			{300, 2, 1, 0}, {1, 0, 300, 2},
		}},
		"commit": {Type: msgCommit, Range: 1, Epoch: 1, Results: []wireResult{
			{Outcome: outcome, Attempts: 1},
			{Subsumed: true},
			{Error: "finalize: replica B crashed", Attempts: 3},
			{Outcome: &runner.Outcome{}, Attempts: 1},
		}},
		"commit-empty": {Type: msgCommit, Range: 9, Epoch: 4, Results: []wireResult{}},
		"telemetry":    {Type: msgTelemetry, Telemetry: `{"worker":"w1"}`},
		"drain":        {Type: msgDrain, RetryMs: 1000},
		"drain-now":    {Type: msgDrain},
		"done":         {Type: msgDone},
		"ok":           {Type: msgOK},
		"fenced":       {Type: msgFenced},
		"error":        {Type: msgError, Err: "commit for range 3 has 2 results, want 8"},
		"error-version": {Type: msgError, Code: errCodeVersion,
			Err: "coordinator: protocol version mismatch: peer speaks version 5, this side version 4"},
	}
}

// TestFrameRoundTrip: every frame decodes to what was encoded (faithful)
// and encodes again to the same bytes (canonical).
func TestFrameRoundTrip(t *testing.T) {
	for name, want := range sampleFrames() {
		data := appendFrame(nil, want)
		got, err := decodeFrame(data)
		if err != nil {
			t.Fatalf("%s: decode(%x): %v", name, data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip gave\n %+v\nwant\n %+v", name, got, want)
		}
		if again := appendFrame(nil, got); !bytes.Equal(again, data) {
			t.Fatalf("%s: encode → decode → encode is not byte-identical:\n 1st %x\n 2nd %x", name, data, again)
		}
	}
}

// TestFramePrefixFree: every strict prefix of a valid frame is rejected as
// truncated and every extension as leaving bytes over.
func TestFramePrefixFree(t *testing.T) {
	for name, f := range sampleFrames() {
		data := appendFrame(nil, f)
		for n := 0; n < len(data); n++ {
			if _, err := decodeFrame(data[:n]); !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("%s: prefix of %d/%d bytes: err = %v, want truncated", name, n, len(data), err)
			}
		}
		if _, err := decodeFrame(append(data, 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("%s: trailing byte: err = %v", name, err)
		}
	}
}

// cut returns the encoding of f with the first occurrence of old replaced
// by new — a hand-corrupted frame.
func cut(t *testing.T, f *frame, old, new string) []byte {
	t.Helper()
	data := appendFrame(nil, f)
	if !bytes.Contains(data, []byte(old)) {
		t.Fatalf("frame %x does not contain %x", data, old)
	}
	return bytes.Replace(data, []byte(old), []byte(new), 1)
}

// TestFrameStrictness is the table of well-delimited inputs the decoder
// must still refuse, each one something appendFrame never writes.
func TestFrameStrictness(t *testing.T) {
	s := sampleFrames()
	uv := func(v uint64) string { return string(binary.AppendUvarint(nil, v)) }
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty frame", nil, "truncated"},
		{"unknown type", []byte{'?'}, "unknown frame type"},
		{"unknown type with body", []byte{0, 1, 2}, "unknown frame type"},
		{"lease with a body", []byte{msgLease, 0}, "trailing"},
		{"result count beyond the bytes left", cut(t, s["commit"], "\x01\x01\x04", "\x01\x01\x7f"), "count 127 exceeds"},
		{"unknown status byte", cut(t, s["commit-empty"], "\x09\x04\x00", "\x09\x04\x01\x03\x00"), "unknown result status 3"},
		{"quarantine without a cause", cut(t, s["commit-empty"], "\x09\x04\x00", "\x09\x04\x01\x02\x01\x00"), "without an error"},
		{"unsorted fingerprints", cut(t, s["commit"], "\x01A\x04fp-a\x01B", "\x01B\x04fp-a\x01A"), `replica "A" after "B"`},
		{"duplicate replica", cut(t, s["commit"], "\x01A\x04fp-a\x01B", "\x01A\x04fp-a\x01A"), `replica "A" after "A"`},
		{"unsorted observations", cut(t, s["commit"], "\x03\x00\x00\x03\x01x", "\x03\x03\x00\x00\x01x"), "event 0 after 3"},
		{"duplicate observation", cut(t, s["commit"], "\x03\x00\x00\x03\x01x", "\x03\x00\x00\x00\x01x"), "event 0 after 0"},
		{"converged byte 2", cut(t, s["commit"], "\x00\x01\x01\x03\x01A", "\x00\x01\x02\x03\x01A"), "bool byte"},
		{"empty grant", []byte{msgRange, 1, 1, 1, 0, 1, 9}, "grant of 0"},
		{"grant of no events", []byte{msgRange, 1, 1, 1, 1, 0}, "× 0 events"},
		{"grant larger than its frame", []byte{msgRange, 1, 1, 1, 5, 5, 1, 2, 3, 4, 5}, "grant of 5 × 5"},
		{"range id beyond int", append([]byte{msgHeartbeat}, uv(1<<63)+uv(1)...), "overflows int"},
		{"unknown error code", []byte{msgError, 2, 0}, "unknown error code 2"},
		{"hello of another version", appendFrame(nil, &frame{Type: msgHello, Version: protocolVersion + 1, Worker: "w"}), "peer speaks version 5, this side version 4"},
		{"hello of version 2, whose welcome named a lock server", appendFrame(nil, &frame{Type: msgHello, Version: 2, Worker: "w"}), "peer speaks version 2, this side version 4"},
		{"hello of an older grammar", []byte{msgHello, 1, '{', '"'}, "peer speaks version 1"},
	}
	for _, c := range cases {
		f, err := decodeFrame(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decode(%x) = %+v, %v; want an error containing %q", c.name, c.data, f, err, c.want)
		}
		if f != nil {
			t.Errorf("%s: a rejected frame still returned %+v", c.name, f)
		}
	}
	for _, v := range []byte{2, protocolVersion + 1} {
		if _, err := decodeFrame([]byte{msgHello, v}); !errors.Is(err, ErrProtocolVersion) {
			t.Errorf("version %d mismatch is not ErrProtocolVersion: %v", v, err)
		}
	}
}

// TestFrameConn: frames survive the length-prefixed transport back to
// back, and a length no frame can have is refused before anything is
// allocated or read.
func TestFrameConn(t *testing.T) {
	var pipe bytes.Buffer
	fc := newFrameConn(&pipe)
	frames := sampleFrames()
	for _, name := range []string{"hello", "range", "commit", "lease", "done"} {
		if err := fc.send(frames[name]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"hello", "range", "commit", "lease", "done"} {
		got, err := fc.recv()
		if err != nil || !reflect.DeepEqual(got, frames[name]) {
			t.Fatalf("%s came back as %+v, %v", name, got, err)
		}
	}
	for _, hdr := range [][]byte{{0}, binary.AppendUvarint(nil, maxFrame+1)} {
		fc := newFrameConn(bytes.NewBuffer(hdr))
		if _, err := fc.recv(); !errors.Is(err, errFrameSize) {
			t.Fatalf("length prefix %x: err = %v, want errFrameSize", hdr, err)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes through the transport and the
// decoder, as a peer could. Neither may panic, and whatever is accepted
// must be a frame the codec can carry: its encoding decodes to the same
// frame and encodes to the same bytes again.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		body := appendFrame(nil, fr)
		f.Add(append(binary.AppendUvarint(nil, uint64(len(body))), body...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := &frameConn{br: bufio.NewReader(bytes.NewReader(data))}
		fr, err := fc.recv()
		if err != nil {
			return
		}
		first := appendFrame(nil, fr)
		again, err := decodeFrame(first)
		if err != nil {
			t.Fatalf("the encoding of an accepted frame does not decode: %v\n frame %+v\n bytes %x", err, fr, first)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Fatalf("decode → encode → decode changed the frame:\n 1st %+v\n 2nd %+v", fr, again)
		}
		if second := appendFrame(nil, again); !bytes.Equal(first, second) {
			t.Fatalf("encode is not a fixed point:\n 1st %x\n 2nd %x", first, second)
		}
	})
}
