package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// records returns n records with distinct keys ("i,i+1") and indices 1..n.
func records(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Index: i + 1, Key: fmt.Sprintf("%d,%d", i, i+1), Sig: "s", Attempts: 1}
	}
	return out
}

// TestJournalCrashAtGroupCommitBoundary simulates a process kill exactly at
// the group-commit boundary: under the count-or-age policy with the age
// trigger disabled, appends past the last count flush sit only in the
// write buffer. A kill drops them; the records flushed by the count
// trigger must all survive, and a resume that appends the lost ones again
// must end with every record exactly once.
func TestJournalCrashAtGroupCommitBoundary(t *testing.T) {
	d := openDir(t)
	// Count-only policy at the default batch size: the first 64 appends
	// flush at #64, appends 65..70 stay volatile.
	d.syncAge = 0
	all := records(journalSyncEvery + 6)
	for i := range all {
		if err := d.Append(&all[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Crash: the file handle goes away without a flush, losing the
	// buffered tail — exactly what SIGKILL does to the page of an
	// unflushed bufio.Writer.
	d.mu.Lock()
	_ = d.log.Close()
	d.log = nil
	d.buf = nil
	d.unsynced = 0
	d.mu.Unlock()

	// Resume in a fresh Dir over the same path.
	re, err := Open(d.Path())
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, all[:journalSyncEvery]) {
		t.Fatalf("recovered %d records, want exactly the %d of the synced batch", len(got), journalSyncEvery)
	}

	// The resumed session re-records only what was lost.
	for i := len(got); i < len(all); i++ {
		if err := re.Append(&all[i]); err != nil {
			t.Fatal(err)
		}
	}
	final, err := re.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final, all) {
		t.Fatalf("after resume: %d records, want %d", len(final), len(all))
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalCrashTornTail writes a torn final record (a partial append,
// the other SIGKILL artifact) and checks that the log reads back every
// record before it, and that the next append — reopening the log —
// truncates it to that valid prefix, so what is appended is read back.
func TestJournalCrashTornTail(t *testing.T) {
	d := openDir(t)
	good := records(6)
	for i := range good[:5] {
		if err := d.Append(&good[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Torn tail: the first half of a record, straight into the file.
	torn := appendRecord(nil, &good[5])
	f, err := os.OpenFile(filepath.Join(d.Path(), recordLogName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(d.Path())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := re.Records(); err != nil || !reflect.DeepEqual(got, good[:5]) {
		t.Fatalf("recovered %d records (%v), want the %d before the torn tail", len(got), err, 5)
	}
	if err := re.Append(&good[5]); err != nil {
		t.Fatal(err)
	}
	if got, err := re.Records(); err != nil || !reflect.DeepEqual(got, good) {
		t.Fatalf("after appending past the torn tail: %d records (%v), want %d", len(got), err, len(good))
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}
