package checkpoint

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
)

func openDir(t *testing.T) *Dir {
	t.Helper()
	d, err := Open(filepath.Join(t.TempDir(), "session"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSaveLoadLog(t *testing.T) {
	d := openDir(t)
	log, err := event.NewLog([]event.Event{
		{Kind: event.Update, Replica: "A", Op: "add", Args: []string{"x"}},
		{Kind: event.SyncExec, Replica: "B", From: "A", To: "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveLog(log); err != nil {
		t.Fatal(err)
	}
	loaded, err := d.LoadLog()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d events", loaded.Len())
	}
	ev := loaded.Event(0)
	if ev.Op != "add" || ev.Args[0] != "x" || ev.Replica != "A" {
		t.Fatalf("event mangled: %+v", ev)
	}
}

func TestLoadLogMissing(t *testing.T) {
	d := openDir(t)
	if _, err := d.LoadLog(); err == nil {
		t.Fatal("missing log must error")
	}
}

// keysOf reads a Dir's record log back as its keys, in append order.
func keysOf(t *testing.T, d *Dir) []string {
	t.Helper()
	recs, err := d.Records()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	return keys
}

// TestExploredJournal: AppendExplored appends a key-only record.
func TestExploredJournal(t *testing.T) {
	d := openDir(t)
	if keys := keysOf(t, d); len(keys) != 0 {
		t.Fatalf("fresh record log: %v", keys)
	}
	ils := []interleave.Interleaving{{0, 1, 2}, {2, 1, 0}}
	for _, il := range ils {
		if err := d.AppendExplored(il); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := d.Records()
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{Key: "0,1,2"}, {Key: "2,1,0"}}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("records = %+v, want %+v", recs, want)
	}
}

// TestExploredJournalBuffering pins the persistent-handle record log: a
// batch of appends below the sync threshold lives in the write buffer
// (invisible to an external reader) until Flush or Close pushes it out,
// while Records flushes implicitly so same-process resume never misses
// buffered records.
func TestExploredJournalBuffering(t *testing.T) {
	d := openDir(t)
	// Count-only policy: this test pins the buffering behavior, which the
	// default age trigger would flush out from under the assertions below.
	d.syncAge = 0
	if err := d.AppendExplored(interleave.Interleaving{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	// Below journalSyncEvery nothing is flushed yet: a second Dir over the
	// same path (an external reader) sees an empty log.
	ext, err := Open(d.Path())
	if err != nil {
		t.Fatal(err)
	}
	if keys := keysOf(t, ext); len(keys) != 0 {
		t.Fatalf("buffered append already on disk: %v", keys)
	}
	// The writing Dir itself must see its own buffered appends.
	if own := keysOf(t, d); len(own) != 1 || own[0] != "0,1,2" {
		t.Fatalf("same-process resume missed buffered records: %v", own)
	}
	// Records flushed, so the external reader now sees it too.
	if keys := keysOf(t, ext); len(keys) != 1 {
		t.Fatalf("post-flush external read: %v", keys)
	}

	// Crossing the sync threshold flushes without an explicit call.
	for i := 0; i < journalSyncEvery-1; i++ {
		if err := d.AppendExplored(interleave.Interleaving{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if keys := keysOf(t, ext); len(keys) != 1 {
		t.Fatalf("flushed below the count trigger: %d records", len(keys))
	}
	if err := d.AppendExplored(interleave.Interleaving{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if keys := keysOf(t, ext); len(keys) != journalSyncEvery+1 {
		t.Fatalf("batch sync did not reach disk: %d records", len(keys))
	}

	// Close flushes the tail and the Dir stays usable afterwards.
	if err := d.AppendExplored(interleave.Interleaving{2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if keys := keysOf(t, ext); len(keys) != journalSyncEvery+2 {
		t.Fatalf("Close did not flush the tail: %d records", len(keys))
	}
	if err := d.AppendExplored(interleave.Interleaving{1, 0, 2}); err != nil {
		t.Fatalf("append after Close must reopen: %v", err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if keys := keysOf(t, ext); len(keys) != journalSyncEvery+3 || keys[len(keys)-1] != "1,0,2" {
		t.Fatalf("reopened log lost the append: %d records", len(keys))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Flush and Close on a closed Dir are no-ops.
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// journalBatches collects FsyncObserver batch sizes thread-safely (age
// flushes arrive on a timer goroutine).
type journalBatches struct {
	mu      sync.Mutex
	batches []int
}

func (b *journalBatches) observe(appends int, _ time.Duration) {
	b.mu.Lock()
	b.batches = append(b.batches, appends)
	b.mu.Unlock()
}

func (b *journalBatches) snapshot() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.batches...)
}

// TestJournalGroupCommitCountTrigger pins the count half of the
// group-commit policy: with the age trigger off, exactly the Nth append
// flushes, as one batch of N.
func TestJournalGroupCommitCountTrigger(t *testing.T) {
	d := openDir(t)
	defer d.Close()
	var obs journalBatches
	d.SetFsyncObserver(obs.observe)
	d.syncEvery, d.syncAge = 4, 0
	for i := 0; i < 3; i++ {
		if err := d.Append(&Record{Index: i + 1, Key: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := obs.snapshot(); len(got) != 0 {
		t.Fatalf("flushed before the count trigger: %v", got)
	}
	if err := d.Append(&Record{Index: 4, Key: "3"}); err != nil {
		t.Fatal(err)
	}
	if got := obs.snapshot(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("count trigger batches = %v, want [4]", got)
	}
}

// TestJournalGroupCommitAgeTrigger pins the age half: a single append —
// far below the count threshold — reaches disk within the age bound, as
// a batch of 1, without any explicit Flush.
func TestJournalGroupCommitAgeTrigger(t *testing.T) {
	d := openDir(t)
	defer d.Close()
	var obs journalBatches
	d.SetFsyncObserver(obs.observe)
	d.syncAge = 10 * time.Millisecond
	if err := d.AppendExplored(interleave.Interleaving{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := obs.snapshot(); len(got) > 0 {
			if len(got) != 1 || got[0] != 1 {
				t.Fatalf("age trigger batches = %v, want [1]", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("age trigger never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	// The flush was durable: an external reader sees the record.
	ext, err := Open(d.Path())
	if err != nil {
		t.Fatal(err)
	}
	if keys := keysOf(t, ext); len(keys) != 1 || keys[0] != "0,1,2" {
		t.Fatalf("age-triggered flush not on disk: %v", keys)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := openDir(t)
	if err := d.SaveSnapshot("A", []byte("state-bytes")); err != nil {
		t.Fatal(err)
	}
	got, err := d.LoadSnapshot("A")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "state-bytes" {
		t.Fatalf("snapshot = %q", got)
	}
	if _, err := d.LoadSnapshot("missing"); err == nil {
		t.Fatal("missing snapshot must error")
	}
}

func TestOpenCreatesNestedDir(t *testing.T) {
	base := t.TempDir()
	d, err := Open(filepath.Join(base, "a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Path() == "" {
		t.Fatal("empty path")
	}
	if err := d.SaveSnapshot("x", []byte("y")); err != nil {
		t.Fatal(err)
	}
}
