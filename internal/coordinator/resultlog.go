package coordinator

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"

	"github.com/er-pi/erpi/internal/wire"
)

// resultLine is one aggregated interleaving's durable record: its key, the
// behaviour signature (or quarantine error), and any assertion violations.
// results.log pairs with the checkpoint journal (explored.log): the journal
// says *which* interleavings are committed, results.log says *what they
// did*, and the write ordering invariant — a batch's result records are
// synced before its journal keys are appended — means every journaled key
// has a durable result record, so a resumed coordinator reconstructs the
// digest and violation set without re-executing anything.
type resultLine struct {
	Index      int
	Key        string
	Sig        string
	Attempts   int
	Error      string
	Subsumed   bool
	Violations []JobViolation
}

// JobViolation is one assertion failure, in serializable form.
type JobViolation struct {
	Index     int    `json:"index"`
	Key       string `json:"key,omitempty"`
	Assertion string `json:"assertion"`
	Error     string `json:"error"`
}

const resultLogName = "results.log"

// A record in results.log is `u32 length · u32 CRC-32 (IEEE) · payload`,
// both little-endian and both over the payload alone, and the payload is
//
//	u index, s key, u kind, [s signature | s error], u attempts,
//	n×[s assertion, s error]
//
// over internal/wire, kind being a commit frame's result status (the
// string is absent for a subsumed record). A violation's index and key
// are its record's. The fixed-width header lets a record be appended in
// one pass; the checksum is what tells a torn or corrupted tail from a
// record.
const recordHeader = 8

// appendResultRecord appends l as one record.
func appendResultRecord(b []byte, l *resultLine) []byte {
	head := len(b)
	b = append(b, make([]byte, recordHeader)...)
	b = wire.AppendUvarint(b, uint64(l.Index))
	b = wire.AppendString(b, l.Key)
	switch {
	case l.Subsumed:
		b = wire.AppendUvarint(b, uint64(statusSubsumed))
	case l.Error != "":
		b = wire.AppendUvarint(b, uint64(statusQuarantined))
		b = wire.AppendString(b, l.Error)
	default:
		b = wire.AppendUvarint(b, uint64(statusOutcome))
		b = wire.AppendString(b, l.Sig)
	}
	b = wire.AppendUvarint(b, uint64(l.Attempts))
	b = wire.AppendUvarint(b, uint64(len(l.Violations)))
	for _, v := range l.Violations {
		b = wire.AppendString(b, v.Assertion)
		b = wire.AppendString(b, v.Error)
	}
	payload := b[head+recordHeader:]
	binary.LittleEndian.PutUint32(b[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[head+4:], crc32.ChecksumIEEE(payload))
	return b
}

// readResultRecord decodes the record at the head of b and returns how
// many bytes it occupied. Any failure — a header or payload cut short, a
// checksum mismatch, a payload that is not exactly one canonical record —
// is an error: the caller stops reading there.
func readResultRecord(b []byte) (resultLine, int, error) {
	var l resultLine
	if len(b) < recordHeader {
		return l, 0, wire.ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > len(b)-recordHeader {
		return l, 0, fmt.Errorf("record of %d bytes, %d left: %w", n, len(b)-recordHeader, wire.ErrTruncated)
	}
	payload := b[recordHeader : recordHeader+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return l, 0, errors.New("checksum mismatch")
	}
	r := wire.NewReader(payload)
	l.Index = readInt(r)
	l.Key = r.String()
	switch readByte(r, statusQuarantined, "record kind") {
	case statusSubsumed:
		l.Subsumed = true
	case statusQuarantined:
		if l.Error = r.String(); l.Error == "" {
			r.Fail(errors.New("quarantine record without an error"))
		}
	default:
		l.Sig = r.String()
	}
	l.Attempts = readInt(r)
	if nv := r.Count(2); nv > 0 {
		l.Violations = make([]JobViolation, nv)
		for i := range l.Violations {
			l.Violations[i] = JobViolation{Index: l.Index, Key: l.Key, Assertion: r.String(), Error: r.String()}
		}
	}
	if l.Key == "" {
		r.Fail(errors.New("record without a key"))
	}
	return l, recordHeader + n, r.Done()
}

// resultLog is the append-only record file in the job's journal dir. It
// has no buffer of its own: the aggregator hands it a whole batch.
type resultLog struct {
	f *os.File
}

// openResultLog opens the log for appending after its first valid bytes:
// whatever follows them is a torn or corrupt tail that a reader stops at,
// so records appended behind it would never be read back.
func openResultLog(dir string, valid int64) (*resultLog, error) {
	f, err := os.OpenFile(filepath.Join(dir, resultLogName), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		_ = f.Close()
		return nil, err
	}
	return &resultLog{f: f}, nil
}

// write hands records to the kernel; sync makes them durable.
func (l *resultLog) write(records []byte) error {
	_, err := l.f.Write(records)
	return err
}

func (l *resultLog) sync() error { return l.f.Sync() }

func (l *resultLog) close() error { return l.f.Close() }

// loadResultLines reads a job dir's result log up to its first torn or
// corrupt record (a crash mid-append leaves at most one, at the tail).
// Everything from there on counts as never written: those interleavings
// re-execute, which is always safe.
func loadResultLines(dir string) ([]resultLine, error) {
	lines, _, err := readResultLog(dir)
	return lines, err
}

// readResultLog is loadResultLines plus the length of the valid prefix.
func readResultLog(dir string) ([]resultLine, int64, error) {
	data, err := os.ReadFile(filepath.Join(dir, resultLogName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	var out []resultLine
	off := 0
	for off < len(data) {
		line, n, err := readResultRecord(data[off:])
		if err != nil {
			slog.Warn("result log ends at a torn or corrupt record",
				"component", "coordinator", "dir", dir, "offset", off, "dropped_bytes", len(data)-off, "err", err)
			break
		}
		out = append(out, line)
		off += n
	}
	return out, int64(off), nil
}
