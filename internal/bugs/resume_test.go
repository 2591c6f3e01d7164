package bugs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/runner"
)

// TestJournalRefusesARecordThatNoLongerReplays records Roshi-1's journal
// against the defective subject and resumes it against the fixed one. The
// resume re-executes the first record of each signature to give the
// assertions their history, so it meets a record whose outcome is not the
// one recorded: the resume must fail naming that record, and leave the
// record log as it was.
func TestJournalRefusesARecordThatNoLongerReplays(t *testing.T) {
	b, _ := ByName("Roshi-1")
	path := t.TempDir()
	session := func(s runner.Scenario) error {
		t.Helper()
		dir, err := checkpoint.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer dir.Close()
		asserts, err := b.NewAssertions()
		if err != nil {
			t.Fatal(err)
		}
		_, err = runner.Run(s, runner.Config{Mode: runner.ModeERPi, Workers: 1, Assertions: asserts, Journal: dir})
		return err
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := session(s); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(path, "results.log")
	before, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := b.BuildFixed()
	if err != nil {
		t.Fatal(err)
	}

	// The record the resume must name: the first one re-executed whose
	// outcome on the fixed subject differs.
	dir, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dir.Records()
	dir.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Records hold indices 1..n of the enumeration: walk both together.
	ex, err := runner.NewExplorer(fixed, runner.Config{Mode: runner.ModeERPi})
	if err != nil {
		t.Fatal(err)
	}
	var want string
	checked := map[string]bool{}
	for _, r := range recs {
		il, _ := ex.Next()
		if il.Key() != r.Key {
			t.Fatalf("record %d holds [%s], the enumeration [%s]", r.Index, r.Key, il.Key())
		}
		if r.Subsumed || r.Error != "" || checked[r.Sig] {
			continue
		}
		checked[r.Sig] = true
		o, err := runner.ExecuteOnce(fixed, il)
		if err != nil {
			t.Fatal(err)
		}
		if runner.OutcomeSignature(o) != r.Sig {
			want = fmt.Sprintf("record %d [%s]", r.Index, r.Key)
			break
		}
	}
	if want == "" {
		t.Fatal("vacuous: every record replays on the fixed subject")
	}

	err = session(fixed)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume on the fixed subject: %v, want an error naming %s", err, want)
	}
	after, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("the refused resume changed the record log: %d bytes, were %d", len(after), len(before))
	}
}
