// Package checkpoint persists a session directory (paper §4.2: "having
// generated all possible interleavings, ER-π persists them in a
// database"): the recorded event log and the record log, one CRC'd record
// per recorded interleaving in exploration-index order, so that an
// interrupted session resumes without regenerating or re-exploring.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/wire"
)

// journalSyncAge is the record log's durability clock. The first append
// the log has not synced arms a timer; when it fires, everything appended
// by then is handed to the kernel and fsynced as one batch, off the
// appending goroutine and outside the Dir's lock. A crash therefore loses
// at most the records appended in the last journalSyncAge (and those of a
// sync still in flight) — each lost record only means that interleaving
// re-executes on resume, which is always safe — while a run pays one fsync
// per tick instead of one per record.
const journalSyncAge = 5 * time.Millisecond

// recordLogName is the record log's file in the session directory.
const recordLogName = "results.log"

// FsyncObserver is notified after each completed sync of the record log
// with the number of appends it covered and how long the write+fsync took,
// before the durable watermark moves past them. It always runs on the
// syncing goroutine — the clock's timer goroutine, or the caller of Flush,
// Records or Close — outside the Dir's lock but before the next sync
// starts, so it must not call Flush, Records or Close, and must be safe
// for concurrent use with the Dir's other callers.
type FsyncObserver func(appends int, took time.Duration)

// Record is one recorded interleaving's entry in the record log: its
// exploration index and key, the behaviour signature of its outcome — or
// that it was subsumed, or the error that quarantined it — its execution
// attempts, and the assertion violations it raised.
type Record struct {
	Index      int
	Key        string
	Sig        string
	Attempts   int
	Error      string
	Subsumed   bool
	Violations []Violation
}

// Violation is one assertion failure, in serializable form.
type Violation struct {
	Index     int    `json:"index"`
	Key       string `json:"key,omitempty"`
	Assertion string `json:"assertion"`
	Error     string `json:"error"`
}

// Dir is an on-disk session directory. The record log is held open
// across appends and buffered, and made durable by one clock: an append
// only encodes into the buffer and arms the clock, which syncs on its own
// goroutine journalSyncAge later. The Dir counts its appends and keeps a
// durable watermark — the appends covered by completed syncs — that
// WaitDurable waits on. Flush forces durability at a point in time, and
// Close does too before releasing the file.
type Dir struct {
	path string

	// syncMu serialises syncs and is held across each one; mu guards
	// everything below and is never held across an fsync, so an Append
	// does not wait on the disk. Lock order syncMu → mu.
	syncMu sync.Mutex

	mu      sync.Mutex
	synced  sync.Cond // on mu: durable moved or err was set
	log     *os.File
	buf     *bufio.Writer
	scratch []byte // the record being encoded
	onFsync FsyncObserver

	// appended counts the records appended through this Dir, durable the
	// ones a completed sync covers. clock is armed while appended >
	// durable and no sync has taken those appends yet; syncAge is
	// journalSyncAge, which only tests change. err is the first failed
	// write or sync, and it sticks: every later Append, Flush and wait
	// returns it, since an fsync retried after a failure can report
	// success for data that never reached the disk.
	appended int
	durable  int
	syncAge  time.Duration
	clock    *time.Timer
	err      error
}

// SetFsyncObserver installs (or, with nil, removes) the sync callback.
func (d *Dir) SetFsyncObserver(fn FsyncObserver) {
	d.mu.Lock()
	d.onFsync = fn
	d.mu.Unlock()
}

// Open creates (if needed) and opens a session directory.
func Open(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create %s: %w", path, err)
	}
	d := &Dir{path: path, syncAge: journalSyncAge}
	d.synced.L = &d.mu
	return d, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// SaveLog persists the recorded event log (Claim of events.json).
func (d *Dir) SaveLog(log *event.Log) error {
	return d.Claim("events.json", log.Events())
}

// Claim persists v as indented JSON under name, for what the records are
// read back against: the event log, the enumeration. A directory whose
// name holds something else belongs to another session and is refused,
// before anything is written.
func (d *Dir) Claim(name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: marshal %s: %w", name, err)
	}
	switch old, err := os.ReadFile(filepath.Join(d.path, name)); {
	case err == nil && bytes.Equal(old, data):
		return nil
	case err == nil:
		return fmt.Errorf("checkpoint: %s holds another session's %s", d.path, name)
	case !os.IsNotExist(err):
		return fmt.Errorf("checkpoint: read %s: %w", name, err)
	}
	return d.writeFile(name, data)
}

// LoadLog restores a recorded event log.
func (d *Dir) LoadLog() (*event.Log, error) {
	data, err := os.ReadFile(filepath.Join(d.path, "events.json"))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read log: %w", err)
	}
	var events []event.Event
	if err := json.Unmarshal(data, &events); err != nil {
		return nil, fmt.Errorf("checkpoint: parse log: %w", err)
	}
	log, err := event.NewLog(events)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: rebuild log: %w", err)
	}
	return log, nil
}

// Append adds r to the record log. It encodes r into the write buffer and
// returns: the durability clock syncs it within journalSyncAge, and a torn
// or lost tail is what a crash leaves, which Records stops before.
func (d *Dir) Append(r *Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	if d.log == nil {
		if err := d.openLocked(); err != nil {
			return err
		}
	}
	d.scratch = appendRecord(d.scratch[:0], r)
	if _, err := d.buf.Write(d.scratch); err != nil {
		return d.failLocked(fmt.Errorf("checkpoint: append record: %w", err))
	}
	d.appended++
	if d.clock == nil {
		d.clock = time.AfterFunc(d.syncAge, d.tick)
	}
	return nil
}

// Appended returns how many records have been appended through d.
func (d *Dir) Appended() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appended
}

// WaitDurable blocks until the first n records appended through d are
// durable — synced by the clock, Flush or Close — and returns nil, or
// returns the error of the sync that failed first. n must not exceed
// Appended: every append up to there is already on its way to a sync.
func (d *Dir) WaitDurable(n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.durable < n && d.err == nil {
		d.synced.Wait()
	}
	if d.durable >= n {
		return nil
	}
	return d.err
}

// AppendExplored appends a key-only record of il. It is what
// benchmark/drives.go times as checkpoint.append_ns, and goes when that
// harness moves to Append (ROADMAP's "Benchmark rounds" item).
func (d *Dir) AppendExplored(il interleave.Interleaving) error {
	return d.Append(&Record{Key: il.Key()})
}

// openLocked opens the record log for appending after its valid prefix:
// whatever follows is a torn or corrupt tail that Records stops at, so
// records appended behind it would never be read back. Caller holds mu.
func (d *Dir) openLocked() error {
	data, err := os.ReadFile(filepath.Join(d.path, recordLogName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint: read record log: %w", err)
	}
	_, valid := d.decode(data)
	f, err := os.OpenFile(filepath.Join(d.path, recordLogName), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: open record log: %w", err)
	}
	if err := f.Truncate(int64(valid)); err != nil {
		_ = f.Close()
		return fmt.Errorf("checkpoint: truncate record log: %w", err)
	}
	d.log = f
	d.buf = bufio.NewWriter(f)
	return nil
}

// tick is the clock's timer callback. A failure is kept in err, where
// the next Append, Flush or WaitDurable finds it.
func (d *Dir) tick() { _ = d.sync() }

// failLocked records the Dir's first write or sync failure, wakes every
// waiter on the watermark and returns the failure. Caller holds mu.
func (d *Dir) failLocked(err error) error {
	if d.err == nil {
		d.err = err
		d.synced.Broadcast()
	}
	return d.err
}

// Flush makes every record appended so far durable before it returns.
func (d *Dir) Flush() error { return d.sync() }

// Close syncs and closes the record log. The Dir stays usable — a later
// append reopens it — unless a write or sync has failed: that error
// sticks, and a failed Dir must be replaced by a fresh Open.
func (d *Dir) Close() error {
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	err := d.syncLocked()
	d.mu.Lock()
	defer d.mu.Unlock()
	// Appends that raced the sync above get one of their own.
	for err == nil && d.appended > d.durable {
		d.mu.Unlock()
		err = d.syncLocked()
		d.mu.Lock()
	}
	if d.log == nil {
		return err
	}
	closeErr := d.log.Close()
	d.log = nil
	d.buf = nil
	if err != nil {
		return err
	}
	if closeErr != nil {
		return fmt.Errorf("checkpoint: close record log: %w", closeErr)
	}
	return nil
}

// sync makes every record appended so far durable.
func (d *Dir) sync() error {
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	return d.syncLocked()
}

// syncLocked takes every append not yet synced: it disarms the clock and
// hands the buffer to the kernel under mu, then fsyncs outside mu —
// appends go on meanwhile and arm the clock for the next batch — tells
// the observer, and moves the watermark, so whoever sees the watermark
// cover an append also sees the sync counted. Caller holds syncMu, which
// keeps the file open and the watermark in order until the sync is done.
func (d *Dir) syncLocked() error {
	d.mu.Lock()
	if d.clock != nil {
		d.clock.Stop()
		d.clock = nil
	}
	from, to, f := d.durable, d.appended, d.log
	if d.err != nil || from == to {
		d.mu.Unlock()
		return d.err
	}
	start := time.Now()
	err := d.buf.Flush()
	obs := d.onFsync
	d.mu.Unlock()
	if err == nil {
		err = f.Sync()
	}
	if err == nil && obs != nil {
		obs(to-from, time.Since(start))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		return d.failLocked(fmt.Errorf("checkpoint: sync record log: %w", err))
	}
	d.durable = to
	d.synced.Broadcast()
	return nil
}

// Records reads the record log, in append order, up to its first torn or
// corrupt record (a crash mid-append leaves at most one, at the tail).
// Everything from there on counts as never written: those interleavings
// re-execute, which is always safe. This Dir's own appends are synced
// first, so a resume within one process sees them; after a failed write or
// sync it returns that error instead, and only a fresh Open of the
// directory reads the records back.
func (d *Dir) Records() ([]Record, error) {
	if err := d.Flush(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(d.path, recordLogName))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("checkpoint: read record log: %w", err)
	}
	records, _ := d.decode(data)
	return records, nil
}

// decode reads the records at the head of data and returns them with the
// length of the valid prefix they occupy.
func (d *Dir) decode(data []byte) ([]Record, int) {
	var out []Record
	off := 0
	for off < len(data) {
		r, n, err := readRecord(data[off:])
		if err != nil {
			slog.Warn("record log ends at a torn or corrupt record",
				"component", "checkpoint", "dir", d.path, "offset", off, "dropped_bytes", len(data)-off, "err", err)
			break
		}
		out = append(out, r)
		off += n
	}
	return out, off
}

// A record is `u32 length · u32 CRC-32 (IEEE) · payload`, both
// little-endian and both over the payload alone, and the payload is
//
//	u index, s key, u kind, [s signature | s error], u attempts,
//	n×[s assertion, s error]
//
// over internal/wire (the string is absent for a subsumed record). A
// violation's index and key are its record's. The fixed-width header lets
// a record be appended in one pass; the checksum is what tells a torn or
// corrupted tail from a record.
const recordHeader = 8

// Record kinds.
const (
	kindOutcome     = 0
	kindSubsumed    = 1
	kindQuarantined = 2
)

// appendRecord appends r as one record.
func appendRecord(b []byte, r *Record) []byte {
	head := len(b)
	b = append(b, make([]byte, recordHeader)...)
	b = wire.AppendUvarint(b, uint64(r.Index))
	b = wire.AppendString(b, r.Key)
	switch {
	case r.Subsumed:
		b = wire.AppendUvarint(b, kindSubsumed)
	case r.Error != "":
		b = wire.AppendUvarint(b, kindQuarantined)
		b = wire.AppendString(b, r.Error)
	default:
		b = wire.AppendUvarint(b, kindOutcome)
		b = wire.AppendString(b, r.Sig)
	}
	b = wire.AppendUvarint(b, uint64(r.Attempts))
	b = wire.AppendUvarint(b, uint64(len(r.Violations)))
	for _, v := range r.Violations {
		b = wire.AppendString(b, v.Assertion)
		b = wire.AppendString(b, v.Error)
	}
	payload := b[head+recordHeader:]
	binary.LittleEndian.PutUint32(b[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[head+4:], crc32.ChecksumIEEE(payload))
	return b
}

// readRecord decodes the record at the head of b and returns how many
// bytes it occupied. Any failure — a header or payload cut short, a
// checksum mismatch, a payload that is not exactly one canonical record —
// is an error: the caller stops reading there.
func readRecord(b []byte) (Record, int, error) {
	var rec Record
	if len(b) < recordHeader {
		return rec, 0, wire.ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > len(b)-recordHeader {
		return rec, 0, fmt.Errorf("record of %d bytes, %d left: %w", n, len(b)-recordHeader, wire.ErrTruncated)
	}
	payload := b[recordHeader : recordHeader+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return rec, 0, errors.New("checksum mismatch")
	}
	r := wire.NewReader(payload)
	rec.Index = r.Int()
	rec.Key = r.String()
	switch kind := r.Uvarint(); kind {
	case kindOutcome:
		rec.Sig = r.String()
	case kindSubsumed:
		rec.Subsumed = true
	case kindQuarantined:
		if rec.Error = r.String(); rec.Error == "" {
			r.Fail(errors.New("quarantine record without an error"))
		}
	default:
		r.Fail(fmt.Errorf("unknown record kind %d", kind))
	}
	rec.Attempts = r.Int()
	if nv := r.Count(2); nv > 0 {
		rec.Violations = make([]Violation, nv)
		for i := range rec.Violations {
			rec.Violations[i] = Violation{Index: rec.Index, Key: rec.Key, Assertion: r.String(), Error: r.String()}
		}
	}
	if rec.Key == "" {
		r.Fail(errors.New("record without a key"))
	}
	return rec, recordHeader + n, r.Done()
}

// SaveJSON atomically persists v as indented JSON under name — the
// manifest primitive the distributed coordinator uses for per-job state
// (job.json) that must never be observed torn.
func (d *Dir) SaveJSON(name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: marshal %s: %w", name, err)
	}
	return d.writeFile(name, data)
}

// LoadJSON restores a value persisted by SaveJSON. A missing file returns
// os.ErrNotExist (callers distinguish "fresh dir" from corruption).
func (d *Dir) LoadJSON(name string, v any) error {
	data, err := os.ReadFile(filepath.Join(d.path, name))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("checkpoint: parse %s: %w", name, err)
	}
	return nil
}

// writeFile writes atomically via a temp file + rename.
func (d *Dir) writeFile(name string, data []byte) error {
	tmp, err := os.CreateTemp(d.path, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("checkpoint: write %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close %s: %w", name, err)
	}
	if err := os.Rename(tmpName, filepath.Join(d.path, name)); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename %s: %w", name, err)
	}
	return nil
}
