package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// records returns n records with distinct keys ("i,i+1") and indices 1..n.
func records(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Index: i + 1, Key: fmt.Sprintf("%d,%d", i, i+1), Sig: "s", Attempts: 1}
	}
	return out
}

// killCopy copies d's record log to a fresh directory as a process kill
// at this instant would leave it — what was handed to the kernel is there,
// what sat in the write buffer is not — and opens the copy.
func killCopy(t *testing.T, d *Dir) *Dir {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(d.Path(), recordLogName))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	c := openDir(t)
	if err := os.WriteFile(filepath.Join(c.Path(), recordLogName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestJournalCrashAroundClockTick kills the process on either side of a
// tick of the durability clock: before it, the buffered tail is lost
// exactly; after it, every record appended before the sync survives and
// only what came later is lost. A resume that appends the lost records
// again ends with every record exactly once.
func TestJournalCrashAroundClockTick(t *testing.T) {
	d := openDir(t)
	defer d.Close()
	d.syncAge = time.Hour // the test fires the clock itself
	all := records(16)
	for i := range all[:10] {
		if err := d.Append(&all[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := killCopy(t, d).Records(); err != nil || len(got) != 0 {
		t.Fatalf("a kill before the clock fired kept %d records (%v), want none", len(got), err)
	}
	d.tick()
	for i := range all[10:] {
		if err := d.Append(&all[10+i]); err != nil {
			t.Fatal(err)
		}
	}
	re := killCopy(t, d)
	got, err := re.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, all[:10]) {
		t.Fatalf("a kill after the clock fired kept %d records, want exactly the 10 it synced", len(got))
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
