// Package checkpoint persists recorded event logs, generated interleavings,
// and exploration progress to disk (paper §4.2: "having generated all
// possible interleavings, ER-π persists them in a database"), so that an
// interrupted session resumes without regenerating or re-exploring.
package checkpoint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
)

// journalSyncEvery is how many journal appends accumulate before the
// buffered writer is flushed and fsynced. A crash loses at most this many
// keys — each lost key only means that interleaving is re-explored, which
// is always safe — while the amortized cost drops from one open+fsync per
// interleaving to one fsync per batch.
const journalSyncEvery = 64

// journalSyncAge bounds how long an unsynced append may sit in the buffer
// before a flush fires anyway. The count trigger alone is tuned for fast
// scenarios; on slow ones (seconds per interleaving) 63 keys could sit
// volatile for minutes. Group commit is count-OR-age: whichever trips
// first flushes the batch.
const journalSyncAge = 5 * time.Millisecond

// FsyncObserver is notified after each durable journal flush with the
// number of appends the batch covered and how long the flush+fsync took.
// It runs under the Dir's lock and must not call back into the Dir.
// Age-triggered flushes invoke it on a background timer goroutine, so
// implementations must be safe for concurrent use.
type FsyncObserver func(appends int, took time.Duration)

// Dir is an on-disk session directory. The progress journal is held open
// across appends and buffered; call Flush to force durability at a point
// in time and Close when done with the directory.
type Dir struct {
	path string

	mu       sync.Mutex
	journal  *os.File
	buf      *bufio.Writer
	unsynced int
	onFsync  FsyncObserver

	// Group-commit policy: flush after syncEvery appends OR syncAge after
	// the first unsynced append, whichever comes first (syncAge <= 0
	// disables the age trigger). ageTimer is armed on the 0 -> 1 unsynced
	// transition and cleared by every flush; a flush error from the timer
	// goroutine is stashed in asyncErr and surfaced by the next
	// AppendExplored or Flush call.
	syncEvery int
	syncAge   time.Duration
	ageTimer  *time.Timer
	asyncErr  error
}

// SetFsyncObserver installs (or, with nil, removes) the flush callback.
func (d *Dir) SetFsyncObserver(fn FsyncObserver) {
	d.mu.Lock()
	d.onFsync = fn
	d.mu.Unlock()
}

// SetSyncPolicy tunes the journal's group commit: flush after `every`
// appends or once `maxAge` has elapsed since the first unsynced append,
// whichever trips first. every <= 0 restores the default count
// (journalSyncEvery); maxAge < 0 restores the default age
// (journalSyncAge); maxAge == 0 disables the age trigger entirely.
func (d *Dir) SetSyncPolicy(every int, maxAge time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if every <= 0 {
		every = journalSyncEvery
	}
	if maxAge < 0 {
		maxAge = journalSyncAge
	}
	d.syncEvery = every
	d.syncAge = maxAge
}

// Open creates (if needed) and opens a session directory.
func Open(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create %s: %w", path, err)
	}
	return &Dir{path: path, syncEvery: journalSyncEvery, syncAge: journalSyncAge}, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// SaveLog persists the recorded event log.
func (d *Dir) SaveLog(log *event.Log) error {
	data, err := json.MarshalIndent(log.Events(), "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: marshal log: %w", err)
	}
	return d.writeFile("events.json", data)
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

// AppendExplored records an explored interleaving key in the progress
// journal (append-only, one key per line). Writes are buffered and group
// committed under the count-or-age policy (see SetSyncPolicy); a torn or
// lost tail is tolerated by LoadExplored's corrupt-line skipping.
func (d *Dir) AppendExplored(il interleave.Interleaving) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.takeAsyncErr(); err != nil {
		return err
	}
	if d.journal == nil {
		f, err := os.OpenFile(filepath.Join(d.path, "explored.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("checkpoint: open journal: %w", err)
		}
		d.journal = f
		d.buf = bufio.NewWriter(f)
	}
	if _, err := fmt.Fprintln(d.buf, il.Key()); err != nil {
		return fmt.Errorf("checkpoint: append journal: %w", err)
	}
	d.unsynced++
	if d.unsynced >= d.syncEvery {
		return d.flushLocked()
	}
	if d.unsynced == 1 && d.syncAge > 0 {
		d.ageTimer = time.AfterFunc(d.syncAge, d.ageFlush)
	}
	return nil
}

// ageFlush is the age-trigger timer callback: flush whatever accumulated
// since the first unsynced append. It runs on the timer goroutine, so a
// flush failure is parked in asyncErr for the next foreground call.
func (d *Dir) ageFlush() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.unsynced == 0 {
		return
	}
	if err := d.flushLocked(); err != nil && d.asyncErr == nil {
		d.asyncErr = err
	}
}

// takeAsyncErr returns (and clears) a pending background flush error.
// Callers must hold d.mu.
func (d *Dir) takeAsyncErr() error {
	err := d.asyncErr
	d.asyncErr = nil
	return err
}

// Flush forces buffered journal appends to stable storage.
func (d *Dir) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.takeAsyncErr(); err != nil {
		return err
	}
	return d.flushLocked()
}

// Close flushes and closes the journal handle. The Dir stays usable: a
// later append reopens the journal.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.journal == nil {
		return nil
	}
	flushErr := d.flushLocked()
	closeErr := d.journal.Close()
	d.journal = nil
	d.buf = nil
	if flushErr != nil {
		return flushErr
	}
	if closeErr != nil {
		return fmt.Errorf("checkpoint: close journal: %w", closeErr)
	}
	return nil
}

func (d *Dir) flushLocked() error {
	if d.ageTimer != nil {
		d.ageTimer.Stop()
		d.ageTimer = nil
	}
	if d.journal == nil {
		return nil
	}
	appends := d.unsynced
	start := time.Now()
	if err := d.buf.Flush(); err != nil {
		return fmt.Errorf("checkpoint: flush journal: %w", err)
	}
	if err := d.journal.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync journal: %w", err)
	}
	d.unsynced = 0
	if d.onFsync != nil && appends > 0 {
		d.onFsync(appends, time.Since(start))
	}
	return nil
}

// LoadExplored returns the set of explored interleaving keys. Lines that
// are not well-formed keys — the typical artifact of a crash mid-append
// leaving a truncated or garbage tail — are skipped with a warning rather
// than poisoning the resume: a skipped key only means that interleaving is
// re-explored, which is always safe.
func (d *Dir) LoadExplored() (map[string]bool, error) {
	// Make same-process appends visible: resume within one process (e.g.
	// two sessions sharing a Dir) must see keys still in the write buffer.
	if err := d.Flush(); err != nil {
		return nil, err
	}
	out := make(map[string]bool)
	f, err := os.Open(filepath.Join(d.path, "explored.log"))
	if err != nil {
		if os.IsNotExist(err) {
			return out, nil
		}
		return nil, fmt.Errorf("checkpoint: open journal: %w", err)
	}
	defer f.Close()
	scanner := bufio.NewScanner(f)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if line == "" {
			continue
		}
		if !validKey(line) {
			slog.Warn("skipping corrupt journal line",
				"component", "checkpoint", "line", lineNo, "content", line)
			continue
		}
		out[line] = true
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: scan journal: %w", err)
	}
	return out, nil
}

// validKey reports whether line has the shape of an interleaving key:
// comma-separated decimal event IDs (see interleave.Interleaving.Key).
func validKey(line string) bool {
	digits := 0
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c >= '0' && c <= '9':
			digits++
		case c == ',':
			if digits == 0 {
				return false // empty field: leading comma or ",,"
			}
			digits = 0
		default:
			return false
		}
	}
	return digits > 0 // non-empty final field, rejects trailing comma
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

// SaveSnapshot persists a replica state snapshot under a name.
func (d *Dir) SaveSnapshot(name string, snapshot []byte) error {
	return d.writeFile("state-"+name+".snap", snapshot)
}

// LoadSnapshot restores a named replica snapshot.
func (d *Dir) LoadSnapshot(name string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(d.path, "state-"+name+".snap"))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read snapshot %s: %w", name, err)
	}
	return data, nil
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
