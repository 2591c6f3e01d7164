package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/telemetry"
)

// TestJournalResume interrupts an exploration after a few interleavings
// and resumes it from the journal: the second run must skip everything
// already explored and finish the space, with no interleaving executed
// twice in total.
func TestJournalResume(t *testing.T) {
	s := townReportScenario(t)
	dir, err := checkpoint.Open(filepath.Join(t.TempDir(), "session"))
	if err != nil {
		t.Fatal(err)
	}

	first, err := Run(s, Config{
		Mode:             ModeERPi,
		MaxInterleavings: 7,
		Journal:          dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Explored != 7 || first.Resumed != 0 {
		t.Fatalf("first run: explored=%d resumed=%d", first.Explored, first.Resumed)
	}

	second, err := Run(s, Config{
		Mode:    ModeERPi,
		Journal: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != 7 {
		t.Fatalf("second run resumed %d, want 7", second.Resumed)
	}
	if second.Explored != 12 {
		t.Fatalf("second run explored %d, want the remaining 12 of 19", second.Explored)
	}
	if !second.Exhausted {
		t.Fatal("second run must exhaust the pruned space")
	}

	// The journal now holds the full space; a third run does nothing new.
	third, err := Run(s, Config{Mode: ModeERPi, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if third.Explored != 0 || third.Resumed != 19 {
		t.Fatalf("third run explored=%d resumed=%d, want 0/19", third.Explored, third.Resumed)
	}

	// The recorded log survives in the journal for offline inspection.
	loaded, err := dir.LoadLog()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Log.Len() {
		t.Fatalf("journaled log has %d events, want %d", loaded.Len(), s.Log.Len())
	}
}

// TestJournalResumeSurvivesCorruptTail simulates the classic crash
// artifact — a torn or garbage tail on the append-only record log — and
// verifies the resume degrades gracefully: the tail is dropped (nothing
// it might have held counts as recorded), the log is truncated to its
// valid prefix so the records appended behind it read back, and the run
// still finishes the space.
func TestJournalResumeSurvivesCorruptTail(t *testing.T) {
	s := townReportScenario(t)
	path := filepath.Join(t.TempDir(), "session")
	dir, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}

	first, err := Run(s, Config{Mode: ModeERPi, MaxInterleavings: 7, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if first.Explored != 7 {
		t.Fatalf("first run explored %d, want 7", first.Explored)
	}
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a partial record; tack on garbage too.
	f, err := os.OpenFile(filepath.Join(path, "results.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\x11\x00\x00\x00garbage\n3,1,4,\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := Run(s, Config{Mode: ModeERPi, Journal: dir})
	if err != nil {
		t.Fatalf("resume over a torn record log: %v", err)
	}
	if second.Resumed != 7 {
		t.Fatalf("second run resumed %d, want 7 (a torn tail must not count)", second.Resumed)
	}
	if second.Explored != 12 {
		t.Fatalf("second run explored %d, want the remaining 12 of 19", second.Explored)
	}
	if !second.Exhausted {
		t.Fatal("second run must exhaust the pruned space")
	}
	// Read from the files alone: all 19 records, numbered 1..19.
	reread, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := reread.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 19 || recs[18].Index != 19 {
		t.Fatalf("record log holds %d records after the resume, want 19", len(recs))
	}
}

// TestJournalRefusesAnotherSession: a session directory belongs to the
// event log it was recorded for. Resuming it with another scenario fails
// before anything is written, and the directory keeps its own log.
func TestJournalRefusesAnotherSession(t *testing.T) {
	town := townReportScenario(t)
	dir, err := checkpoint.Open(filepath.Join(t.TempDir(), "session"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(town, Config{Mode: ModeERPi, MaxInterleavings: 7, Journal: dir}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(roshiScenario(t), Config{Mode: ModeERPi, Journal: dir})
	if err == nil || !strings.HasPrefix(err.Error(), "checkpoint:") {
		t.Fatalf("the town-report session resumed by the Roshi scenario: %+v, %v", res, err)
	}
	loaded, err := dir.LoadLog()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != town.Log.Len() {
		t.Fatalf("the refused session overwrote the log: %d events, want %d", loaded.Len(), town.Log.Len())
	}
}

// TestJournalRefusesAnotherSpec: a session directory also belongs to the
// enumeration its indices were recorded under. Resuming an ER-π session
// in DFS — which numbers the same event log another way — fails before
// anything is written, and the directory keeps its records.
func TestJournalRefusesAnotherSpec(t *testing.T) {
	s := townReportScenario(t)
	dir, err := checkpoint.Open(filepath.Join(t.TempDir(), "session"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, Config{Mode: ModeERPi, MaxInterleavings: 5, Journal: dir}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, Config{Mode: ModeDFS, Journal: dir})
	if err == nil || !strings.HasPrefix(err.Error(), "checkpoint:") {
		t.Fatalf("the ER-π session resumed in DFS: %+v, %v", res, err)
	}
	recs, err := dir.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("the refused session holds %d records, want 5", len(recs))
	}
}

// TestJournalResumeFuzzReplaysSignatures: a resumed ModeFuzz session feeds
// the fuzzer the recorded signature of every interleaving it skips, so a
// run to cap 6 resumed to cap 20 evolves the corpus — and executes the
// interleavings — that a straight run to cap 20 does.
func TestJournalResumeFuzzReplaysSignatures(t *testing.T) {
	run := func(dir *checkpoint.Dir, cap int) (*Result, []string) {
		var keys []string
		res, err := Run(roshiScenario(t), Config{
			Mode: ModeFuzz, Seed: 11, FuzzGenerationSize: 4, Workers: 1,
			MaxInterleavings: cap, Journal: dir,
			OnOutcome: func(o *Outcome) { keys = append(keys, o.Interleaving.Key()) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, keys
	}
	straight, wantKeys := run(nil, 20)
	dir, err := checkpoint.Open(filepath.Join(t.TempDir(), "session"))
	if err != nil {
		t.Fatal(err)
	}
	_, keys := run(dir, 6)
	resumed, more := run(dir, 20)
	if resumed.Resumed != 6 || resumed.Fuzz.Generations < 2 {
		t.Fatalf("vacuous: resumed %d, %d generations", resumed.Resumed, resumed.Fuzz.Generations)
	}
	if !reflect.DeepEqual(*resumed.Fuzz, *straight.Fuzz) {
		t.Fatalf("the resume changed the fuzzer's course:\n got  %+v\n want %+v", *resumed.Fuzz, *straight.Fuzz)
	}
	if got := append(keys, more...); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("executed keys:\n got  %v\n want %v", got, wantKeys)
	}
}

// TestJournalResumeHonorsSessionCap pins the session-wide cap semantics:
// interleavings resumed from the journal count toward MaxInterleavings,
// so a killed-and-resumed exploration never executes more than the cap in
// total (the old engine granted each resume a fresh budget).
func TestJournalResumeHonorsSessionCap(t *testing.T) {
	s := townReportScenario(t)
	dir, err := checkpoint.Open(filepath.Join(t.TempDir(), "session"))
	if err != nil {
		t.Fatal(err)
	}

	first, err := Run(s, Config{Mode: ModeERPi, MaxInterleavings: 7, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if first.Explored != 7 {
		t.Fatalf("first run explored %d, want 7", first.Explored)
	}

	// Raising the cap to 10 grants the resume only the 3 remaining.
	second, err := Run(s, Config{Mode: ModeERPi, MaxInterleavings: 10, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != 7 || second.Explored != 3 {
		t.Fatalf("second run resumed=%d explored=%d, want 7/3", second.Resumed, second.Explored)
	}

	// A cap at or below what the journal already holds leaves nothing.
	third, err := Run(s, Config{Mode: ModeERPi, MaxInterleavings: 7, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if third.Resumed != 10 || third.Explored != 0 {
		t.Fatalf("third run resumed=%d explored=%d, want 10/0", third.Resumed, third.Explored)
	}
}

// TestConstraintRepruningShrinksExploration verifies the §5.2 runtime
// constraint path end to end: constraints appearing mid-run regenerate the
// explorer, and the merged pruning shrinks the total exploration below the
// unconstrained space.
func TestConstraintRepruningShrinksExploration(t *testing.T) {
	s := townReportScenario(t)
	// Without the replica-specific constraint: grouped space only.
	base := s
	base.Pruning.TestedReplicas = nil
	plain, err := Run(base, Config{Mode: ModeERPi})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Explored != 24 {
		t.Fatalf("unconstrained grouped space = %d, want 24", plain.Explored)
	}

	// The same run, but the tested-replica constraint arrives after five
	// interleavings via the polling hook.
	delivered := false
	constrained, err := Run(base, Config{
		Mode:      ModeERPi,
		PollEvery: 5,
		ConstraintPoll: func() (pcfg prune.Config, found bool, err error) {
			if delivered {
				return pcfg, false, nil
			}
			delivered = true
			pcfg.TestedReplicas = append(pcfg.TestedReplicas, "M")
			return pcfg, true, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !constrained.Exhausted {
		t.Fatal("constrained run must exhaust")
	}
	if constrained.Explored >= plain.Explored {
		t.Fatalf("re-pruning did not shrink exploration: %d vs %d",
			constrained.Explored, plain.Explored)
	}
}

// TestKillAnywhere interrupts an exploration after every k-th recorded
// outcome and resumes it in a new session over the same directory, until
// a session finishes — at Workers 1, 2 and 8, for a plain run with
// violations and a quarantine, StopOnViolation, ModeFuzz and a
// ConstraintPoll re-prune past a quarantined poll boundary. However it was cut, the chain must leave the
// record log an uninterrupted run leaves (every index, key, signature,
// error and violation), and its last session must report the violations,
// FirstViolation, quarantines and fuzz trajectory of the whole
// exploration.
func TestKillAnywhere(t *testing.T) {
	cases := []struct {
		name string
		s    func(t *testing.T) Scenario
		// cfg builds a session's Config; a ConstraintPoll is the session's
		// own, like the constraint source a new process opens.
		cfg func() Config
	}{
		{"plain", townReportScenario, func() Config {
			return Config{
				Mode: ModeDFS, MaxInterleavings: 30,
				Assertions: []Assertion{municipalityInvariant{}},
				Faults: &fault.Schedule{Faults: []fault.Fault{
					{Kind: fault.CrashReplica, Replica: "B", Interleaving: 6, At: 0, Duration: 10},
				}},
			}
		}},
		{"stop-on-violation", townReportScenario, func() Config {
			return Config{Mode: ModeERPi, StopOnViolation: true, Assertions: []Assertion{startsWith(2)}}
		}},
		{"fuzz", townReportScenario, func() Config {
			return Config{
				Mode: ModeFuzz, Seed: 11, FuzzGenerationSize: 4, MaxInterleavings: 20,
				Assertions: []Assertion{municipalityInvariant{}},
			}
		}},
		{"reprune", func(t *testing.T) Scenario {
			s := townReportScenario(t)
			s.Pruning.TestedReplicas = nil
			return s
		}, func() Config {
			delivered := false
			return Config{
				Mode: ModeERPi, PollEvery: 4,
				Assertions: []Assertion{municipalityInvariant{}},
				// Index 4, the first poll boundary, quarantines: its poll is
				// skipped, and the constraint arrives at index 8.
				Faults: &fault.Schedule{Faults: []fault.Fault{
					{Kind: fault.CrashReplica, Replica: "B", Interleaving: 4, At: 0, Duration: 10},
				}},
				ConstraintPoll: func() (pcfg prune.Config, found bool, err error) {
					if delivered {
						return pcfg, false, nil
					}
					delivered = true
					// Prunes orders all through the sequence, so a poll one
					// boundary early or late shows.
					pcfg.IndependentSets = []prune.IndependenceSpec{{Events: []event.ID{2, 4}}}
					return pcfg, true, nil
				},
			}
		}},
		// A's state first differs at index 9, past every cut: a session
		// that does not re-check the records takes its own first outcome
		// for the state to hold. The partition changes index 3's outcome
		// but not A's state; a re-check that does not arm it at index 3
		// refuses the journal.
		{"state-stable", townReportScenario, func() Config {
			return Config{
				Mode: ModeERPi, Assertions: []Assertion{&stateStable{rep: "A"}},
				Faults: &fault.Schedule{Faults: []fault.Fault{
					{Kind: fault.Partition, A: "A", B: "M", Interleaving: 3, At: 0, Duration: 10},
				}},
			}
		}},
		{"rand", townReportScenario, func() Config {
			return Config{Mode: ModeRand, Seed: 7, MaxInterleavings: 30, Assertions: []Assertion{municipalityInvariant{}}}
		}},
		// A merged group rebuilds the unit space: the new sequence is not
		// the old one past some point, so a resumed or re-pruned run skips
		// by key, never by position.
		{"reprune-group", func(t *testing.T) Scenario {
			s := townReportScenario(t)
			s.Pruning.TestedReplicas = nil
			return s
		}, func() Config {
			delivered := false
			return Config{
				Mode: ModeERPi, PollEvery: 4,
				Assertions: []Assertion{municipalityInvariant{}},
				ConstraintPoll: func() (pcfg prune.Config, found bool, err error) {
					if delivered {
						return pcfg, false, nil
					}
					delivered = true
					pcfg.Grouping.Extra = [][]event.ID{{2, 3, 4, 5}}
					return pcfg, true, nil
				},
			}
		}},
	}
	// A case named here must change some key past its first poll boundary
	// against a run without the poll, or it proves nothing.
	pollMoves := map[string]bool{"reprune-group": true}
	records := func(t *testing.T, path string) []checkpoint.Record {
		t.Helper()
		d, err := checkpoint.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := d.Records()
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	// session runs one session over path, cancelled after k outcomes (never,
	// with k = 0), with a registry attached: /progress and runner.explored
	// read the session's Explored, interrupted sessions included.
	session := func(t *testing.T, s Scenario, cfg Config, path string, k int) *Result {
		t.Helper()
		dir, err := checkpoint.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer dir.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		seen := 0
		cfg.OnOutcome = func(*Outcome) {
			if seen++; seen == k {
				cancel()
			}
		}
		cfg.Journal = dir
		reg := telemetry.New()
		cfg.Telemetry = reg
		res, err := RunContext(ctx, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		progress, counted := reg.Progress().Snapshot().Explored, reg.Snapshot().Counters["runner.explored"]
		if progress != int64(res.Explored) || counted != int64(res.Explored) {
			t.Fatalf("workers %d, every %d outcomes: /progress explored %d, runner.explored %d, Result.Explored %d", cfg.Workers, k, progress, counted, res.Explored)
		}
		return res
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s(t)
			wantPath := filepath.Join(t.TempDir(), "uninterrupted")
			cfg := tc.cfg()
			cfg.Workers = 1
			want := session(t, s, cfg, wantPath, 0)
			wantRecs := records(t, wantPath)
			if len(want.Violations) == 0 || len(wantRecs) != want.Explored {
				t.Fatalf("vacuous: %d violations, %d records of %d explored", len(want.Violations), len(wantRecs), want.Explored)
			}
			if pollMoves[tc.name] {
				cfg := tc.cfg()
				cfg.Workers, cfg.ConstraintPoll = 1, nil
				unpolledPath := filepath.Join(t.TempDir(), "unpolled")
				session(t, s, cfg, unpolledPath, 0)
				unpolled := records(t, unpolledPath)
				moved := len(unpolled) != len(wantRecs)
				for i := cfg.PollEvery; !moved && i < len(wantRecs); i++ {
					moved = unpolled[i].Key != wantRecs[i].Key
				}
				if !moved {
					t.Fatal("vacuous: the poll changes no key past its boundary")
				}
			}
			for _, workers := range []int{1, 2, 8} {
				for _, k := range []int{1, 2, 5} {
					path := filepath.Join(t.TempDir(), "session")
					explored, sessions := 0, 0
					var res *Result
					for {
						cfg := tc.cfg()
						cfg.Workers = workers
						before := len(records(t, path))
						res = session(t, s, cfg, path, k)
						// The ledger counts what it records, interrupted
						// sessions included.
						if appended := len(records(t, path)) - before; res.Explored != appended {
							t.Fatalf("workers %d, every %d outcomes, session %d: explored %d, appended %d records", workers, k, sessions+1, res.Explored, appended)
						}
						explored += res.Explored
						if sessions++; !res.Interrupted {
							break
						}
						if sessions > 2*want.Explored+2 {
							t.Fatalf("workers %d, k %d: no progress after %d sessions", workers, k, sessions)
						}
					}
					at := func(what string, got, want any) {
						t.Helper()
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("workers %d, every %d outcomes (%d sessions): %s\n got  %v\n want %v", workers, k, sessions, what, got, want)
						}
					}
					at("records", records(t, path), wantRecs)
					at("explored", explored, want.Explored)
					at("resumed + explored", res.Resumed+res.Explored, want.Explored)
					at("violations", violationKeys(res), violationKeys(want))
					at("first violation", res.FirstViolation, want.FirstViolation)
					at("quarantined", quarantineKeys(res), quarantineKeys(want))
					at("exhausted", res.Exhausted, want.Exhausted)
					at("fuzz", res.Fuzz, want.Fuzz)

					// One session more finds nothing left to do, and still
					// reports what the records hold.
					cfg := tc.cfg()
					cfg.Workers = workers
					res = session(t, s, cfg, path, 0)
					at("explored again", res.Explored, 0)
					at("records again", records(t, path), wantRecs)
					at("violations again", violationKeys(res), violationKeys(want))
					at("first violation again", res.FirstViolation, want.FirstViolation)
					at("quarantined again", quarantineKeys(res), quarantineKeys(want))
				}
			}
		})
	}
}

// stateStable fails every outcome in which the replica's state is not
// the one it held in the first outcome checked: check.StateStable's shape,
// a cross-interleaving assertion.
type stateStable struct {
	rep             event.ReplicaID
	first, firstKey string
	checked         bool
}

func (a *stateStable) Name() string { return "state-stable" }
func (a *stateStable) Check(o *Outcome) error {
	fp := o.Fingerprints[a.rep]
	if !a.checked {
		a.first, a.firstKey, a.checked = fp, o.Interleaving.Key(), true
	}
	if fp != a.first {
		return fmt.Errorf("%s holds %q, %q in the first outcome checked [%s]", a.rep, fp, a.first, a.firstKey)
	}
	return nil
}

// startsWith fails every interleaving that begins with the event: a
// violation that comes late in ModeERPi's order.
type startsWith event.ID

func (startsWith) Name() string { return "starts-with" }
func (e startsWith) Check(o *Outcome) error {
	if o.Interleaving[0] == event.ID(e) {
		return errors.New("starts with " + strconv.Itoa(int(e)))
	}
	return nil
}
