package checkpoint

import (
	"errors"
	"fmt"
	"os"
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

// TestExploredJournalBuffering pins the persistent-handle record log:
// appends the clock has not synced yet live in the write buffer
// (invisible to an external reader) until Flush or Close pushes them out,
// while Records syncs implicitly so same-process resume never misses
// buffered records.
func TestExploredJournalBuffering(t *testing.T) {
	d := openDir(t)
	// The clock must not sync out from under the assertions below.
	d.syncAge = time.Hour
	if err := d.AppendExplored(interleave.Interleaving{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	// Nothing is synced yet: a second Dir over the same path (an external
	// reader) sees an empty log.
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
	// Records synced, so the external reader now sees it too.
	if keys := keysOf(t, ext); len(keys) != 1 {
		t.Fatalf("post-sync external read: %v", keys)
	}

	// Close syncs the tail and the Dir stays usable afterwards.
	if err := d.AppendExplored(interleave.Interleaving{2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if keys := keysOf(t, ext); len(keys) != 2 {
		t.Fatalf("Close did not sync the tail: %d records", len(keys))
	}
	if err := d.AppendExplored(interleave.Interleaving{1, 0, 2}); err != nil {
		t.Fatalf("append after Close must reopen: %v", err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if keys := keysOf(t, ext); len(keys) != 3 || keys[len(keys)-1] != "1,0,2" {
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

// journalBatches collects FsyncObserver batch sizes thread-safely (the
// clock's syncs arrive on a timer goroutine).
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

// TestJournalClockBelowAgeSyncsNothing: appends alone never sync — however
// many arrive inside the age bound, the log is synced only when the clock
// fires (or a Flush forces it), as one batch that moves the watermark.
func TestJournalClockBelowAgeSyncsNothing(t *testing.T) {
	d := openDir(t)
	defer d.Close()
	var obs journalBatches
	d.SetFsyncObserver(obs.observe)
	d.syncAge = time.Hour
	const n = 1000 // several write buffers' worth
	for i := 0; i < n; i++ {
		if err := d.Append(&Record{Index: i + 1, Key: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := obs.snapshot(); len(got) != 0 {
		t.Fatalf("synced inside the age bound: %v", got)
	}
	if d.Appended() != n || d.durable != 0 {
		t.Fatalf("appended %d, durable %d; want %d, 0", d.Appended(), d.durable, n)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := obs.snapshot(); len(got) != 1 || got[0] != n {
		t.Fatalf("Flush batches = %v, want [%d]", got, n)
	}
	if err := d.WaitDurable(n); err != nil {
		t.Fatal(err)
	}
}

// TestJournalGroupCommitAgeTrigger pins the clock itself: a single append
// reaches disk within the age bound, as a batch of 1, without any explicit
// Flush, and moves the watermark WaitDurable waits on.
func TestJournalGroupCommitAgeTrigger(t *testing.T) {
	d := openDir(t)
	defer d.Close()
	synced := make(chan int, 1)
	d.SetFsyncObserver(func(appends int, _ time.Duration) { synced <- appends })
	d.syncAge = 10 * time.Millisecond
	if err := d.AppendExplored(interleave.Interleaving{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-synced:
		if got != 1 {
			t.Fatalf("clock synced a batch of %d, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the clock never synced")
	}
	if err := d.WaitDurable(1); err != nil {
		t.Fatal(err)
	}
	// The sync was durable: an external reader sees the record.
	ext, err := Open(d.Path())
	if err != nil {
		t.Fatal(err)
	}
	if keys := keysOf(t, ext); len(keys) != 1 || keys[0] != "0,1,2" {
		t.Fatalf("clock sync not on disk: %v", keys)
	}
}

// TestJournalAppendDuringSync: a sync in flight holds no lock an Append
// needs. The observer runs at the end of a sync, past its fsync, and here
// it blocks; meanwhile Append returns and arms the clock for a sync of its
// own, and the watermark moves once the observer is done.
func TestJournalAppendDuringSync(t *testing.T) {
	d := openDir(t)
	defer d.Close()
	d.syncAge = time.Hour
	inSync, release := make(chan int), make(chan struct{})
	d.SetFsyncObserver(func(appends int, _ time.Duration) {
		inSync <- appends
		<-release
	})
	if err := d.AppendExplored(interleave.Interleaving{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- d.Flush() }()
	if got := <-inSync; got != 1 {
		t.Fatalf("sync covered %d appends, want 1", got)
	}
	appended := make(chan error, 1)
	go func() { appended <- d.AppendExplored(interleave.Interleaving{2, 1, 0}) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append waited on a sync in flight")
	}
	d.mu.Lock()
	durable, armed := d.durable, d.clock != nil
	d.mu.Unlock()
	if durable != 0 || !armed {
		t.Fatalf("durable %d, clock armed %v during the sync; want 0, true", durable, armed)
	}
	close(release)
	if err := d.WaitDurable(1); err != nil {
		t.Fatal(err)
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	go func() { flushed <- d.Flush() }()
	if got := <-inSync; got != 1 {
		t.Fatalf("second sync covered %d appends, want 1", got)
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRoundTrip: a manifest reads back as written, and a missing
// one is os.ErrNotExist, which is how a fresh directory is told from a
// corrupt one.
func TestSnapshotRoundTrip(t *testing.T) {
	d := openDir(t)
	type manifest struct {
		State string `json:"state"`
	}
	if err := d.SaveJSON("job.json", manifest{State: "running"}); err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := d.LoadJSON("job.json", &got); err != nil {
		t.Fatal(err)
	}
	if got.State != "running" {
		t.Fatalf("manifest = %+v", got)
	}
	if err := d.LoadJSON("missing.json", &got); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest: %v, want os.ErrNotExist", err)
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
	if err := d.SaveJSON("x.json", "y"); err != nil {
		t.Fatal(err)
	}
}
