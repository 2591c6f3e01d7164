package runner

import (
	"crypto/sha256"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/telemetry"
)

const testSubTable = 4 << 20

// signatureSet runs the scenario and returns the deduplicated, sorted
// outcome-signature set — the invariant subsumption must preserve: which
// interleavings execute may change, which behaviors exist may not.
func signatureSet(t *testing.T, s Scenario, cfg Config) ([]string, *Result) {
	t.Helper()
	seen := make(map[string]struct{})
	cfg.OnOutcome = func(o *Outcome) { seen[OutcomeSignature(o)] = struct{}{} }
	res, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sigs := make([]string, 0, len(seen))
	for sig := range seen {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	return sigs, res
}

func hashOf(b byte) [sha256.Size]byte {
	var h [sha256.Size]byte
	h[0] = b
	return h
}

// msetOf builds a distinct remaining-multiset digest for table tests.
func msetOf(b byte) msetDigest {
	return msetContribution(event.ID(b))
}

// TestSubsumeTableLexRule pins the table's core soundness rule: a frontier
// skips only arrivals via a lexicographically STRICTLY GREATER prefix, the
// same literal prefix never self-subsumes, and a smaller arrival is
// adopted as the entry's new witness.
func TestSubsumeTableLexRule(t *testing.T) {
	tbl := newSubsumeTable(testSubTable)
	ctx, rem := hashOf(1), msetOf(2)

	if skip, delta := tbl.visit(ctx, rem, interleave.Interleaving{2, 1}); skip || delta <= 0 {
		t.Fatalf("first visit: skip=%v delta=%d, want record", skip, delta)
	}
	// Same literal prefix (a re-walk of the recording pass): no skip.
	if skip, _ := tbl.visit(ctx, rem, interleave.Interleaving{2, 1}); skip {
		t.Fatal("same-prefix arrival must not self-subsume")
	}
	// Lexicographically greater arrival: subsumed.
	if skip, _ := tbl.visit(ctx, rem, interleave.Interleaving{3, 0}); !skip {
		t.Fatal("greater-prefix arrival must be subsumed")
	}
	// Lexicographically smaller arrival: adopted, not skipped.
	if skip, _ := tbl.visit(ctx, rem, interleave.Interleaving{1, 2}); skip {
		t.Fatal("smaller-prefix arrival must execute (it becomes the witness)")
	}
	// The old witness is now the greater prefix: subsumed on return.
	if skip, _ := tbl.visit(ctx, rem, interleave.Interleaving{2, 1}); !skip {
		t.Fatal("old witness must be subsumed after adoption")
	}
	// Different frontier (other remaining multiset): independent entry.
	if skip, _ := tbl.visit(ctx, msetOf(3), interleave.Interleaving{3, 0}); skip {
		t.Fatal("distinct frontier must not be subsumed")
	}
	if tbl.len() != 2 {
		t.Fatalf("table has %d entries, want 2", tbl.len())
	}

	if freed := tbl.invalidate(); freed <= 0 || tbl.len() != 0 || tbl.bytesHeld() != 0 {
		t.Fatalf("invalidate freed=%d len=%d bytes=%d, want full flush", freed, tbl.len(), tbl.bytesHeld())
	}
	// After a flush the old frontier records (and executes) again.
	if skip, _ := tbl.visit(ctx, rem, interleave.Interleaving{3, 0}); skip {
		t.Fatal("flushed frontier must not subsume")
	}
}

// TestSubsumeTableEviction pins the byte budget: FIFO eviction keeps the
// table under budget, and an entry larger than the whole budget is
// rejected rather than wedging the table.
func TestSubsumeTableEviction(t *testing.T) {
	budget := int64(3 * (subsumeEntryOverhead + 8*2))
	tbl := newSubsumeTable(budget)
	for i := byte(0); i < 5; i++ {
		tbl.visit(hashOf(i), msetOf(i), interleave.Interleaving{1, 2})
	}
	if tbl.len() != 3 {
		t.Fatalf("table holds %d entries over a 3-entry budget", tbl.len())
	}
	if tbl.bytesHeld() > budget {
		t.Fatalf("bytes %d exceed budget %d", tbl.bytesHeld(), budget)
	}
	// The oldest entries were evicted: frontier 0 records afresh (no skip
	// even on a greater arrival).
	if skip, _ := tbl.visit(hashOf(0), msetOf(0), interleave.Interleaving{2, 1}); skip {
		t.Fatal("evicted frontier must not subsume")
	}

	// Eviction order is insertion order whatever stripe an entry lives in:
	// frontiers 40, 9, 33, 2, 41 land in stripes 8, 9, 1, 2, 9, and a
	// 3-entry table must always hold exactly the three youngest.
	order := []byte{40, 9, 33, 2, 41}
	fifo := newSubsumeTable(budget)
	held := func(i byte) bool {
		key := subsumeKey{ctx: hashOf(i), rem: msetOf(i)}
		st := fifo.stripeFor(key)
		st.mu.Lock()
		defer st.mu.Unlock()
		_, ok := st.entries[key]
		return ok
	}
	for n, i := range order {
		fifo.visit(hashOf(i), msetOf(i), interleave.Interleaving{1, 2})
		for m, j := range order[:n+1] {
			if want := m > n-3; held(j) != want {
				t.Fatalf("after inserting %v: frontier %d held=%v, want %v (FIFO across stripes)", order[:n+1], j, !want, want)
			}
		}
	}

	// invalidate empties the queue with the stripes: nothing is left to
	// evict, and the next inserts start a fresh FIFO.
	fifo.invalidate()
	if fifo.head != nil || fifo.tail != nil {
		t.Fatal("eviction queue not empty after invalidate")
	}
	if freed, ok := fifo.evictOldest(); ok || freed != 0 {
		t.Fatalf("evictOldest on an empty table = (%d, %v), want (0, false)", freed, ok)
	}
	for i := byte(0); i < 4; i++ {
		fifo.visit(hashOf(i), msetOf(i), interleave.Interleaving{1, 2})
	}
	if fifo.len() != 3 || held(0) || !held(1) || !held(3) {
		t.Fatalf("after invalidate: %d entries (0 held=%v), want the 3 youngest of 4", fifo.len(), held(0))
	}

	huge := newSubsumeTable(8)
	if skip, delta := huge.visit(hashOf(9), msetOf(9), interleave.Interleaving{1}); skip || delta != 0 || huge.len() != 0 {
		t.Fatalf("over-budget entry: skip=%v delta=%d len=%d, want rejection", skip, delta, huge.len())
	}
}

// TestSubsumptionSignatureParity is the central soundness pin: with
// subsumption on, the deduplicated outcome-signature set is identical to
// the subsumption-off baseline for both lexicographic modes at Workers 1
// and 8, while the one-worker runs actually skip work.
func TestSubsumptionSignatureParity(t *testing.T) {
	for _, mode := range []Mode{ModeERPi, ModeDFS} {
		for _, workers := range []int{1, 8} {
			s := townReportScenario(t)
			base, baseRes := signatureSet(t, s, Config{Mode: mode, Workers: workers})
			sub, subRes := signatureSet(t, s, Config{Mode: mode, Workers: workers, SubsumptionTable: testSubTable})
			if strings.Join(base, "\n") != strings.Join(sub, "\n") {
				t.Fatalf("mode %s workers %d: subsumption changed the behavior set:\n off: %d sigs\n on:  %d sigs",
					mode, workers, len(base), len(sub))
			}
			if baseRes.Explored != subRes.Explored {
				t.Fatalf("mode %s workers %d: explored %d with subsumption vs %d without — skipped interleavings must still count",
					mode, workers, subRes.Explored, baseRes.Explored)
			}
			if baseRes.Subsumed != 0 {
				t.Fatalf("mode %s workers %d: baseline reports %d subsumed without a table", mode, workers, baseRes.Subsumed)
			}
			if workers <= 1 && subRes.Subsumed == 0 {
				t.Fatalf("mode %s workers 1: no interleaving was subsumed — the table never pruned", mode)
			}
			if subRes.Subsumed >= subRes.Explored {
				t.Fatalf("mode %s workers %d: %d of %d subsumed — at least the witnesses must execute",
					mode, workers, subRes.Subsumed, subRes.Explored)
			}
		}
	}
}

// TestSubsumptionSequentialDeterminism: with one worker the same run
// subsumes the same interleavings every time (with more, the skip set may
// vary with timing).
func TestSubsumptionSequentialDeterminism(t *testing.T) {
	s := townReportScenario(t)
	cfg := Config{Mode: ModeERPi, Workers: 1, SubsumptionTable: testSubTable}
	first, firstRes := signatureSet(t, s, cfg)
	second, secondRes := signatureSet(t, s, cfg)
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Fatal("sequential subsumption produced different behavior sets across runs")
	}
	if firstRes.Subsumed != secondRes.Subsumed || firstRes.Explored != secondRes.Explored {
		t.Fatalf("sequential subsumption not deterministic: %d/%d vs %d/%d subsumed/explored",
			firstRes.Subsumed, firstRes.Explored, secondRes.Subsumed, secondRes.Explored)
	}
}

// TestSubsumptionWithPrefixCache: the two accelerators compose — cache
// snapshot depths double as subsumption checkpoints — without changing
// the behavior set.
func TestSubsumptionWithPrefixCache(t *testing.T) {
	s := townReportScenario(t)
	base, _ := signatureSet(t, s, Config{Mode: ModeERPi})
	both, res := signatureSet(t, s, Config{
		Mode:             ModeERPi,
		Workers:          1,
		SubsumptionTable: testSubTable,
		PrefixCacheBytes: 1 << 20,
	})
	if strings.Join(base, "\n") != strings.Join(both, "\n") {
		t.Fatal("subsumption + prefix cache changed the behavior set")
	}
	if res.Subsumed == 0 {
		t.Fatal("no subsumption happened with the cache supplying snapshot depths")
	}
}

// TestSubsumptionIgnoredOutsideLexicographicModes: ModeRand cannot
// guarantee a witness interleaving runs, so the flag must be a no-op.
func TestSubsumptionIgnoredOutsideLexicographicModes(t *testing.T) {
	s := townReportScenario(t)
	res, err := Run(s, Config{Mode: ModeRand, Seed: 7, MaxInterleavings: 30, SubsumptionTable: testSubTable})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subsumed != 0 {
		t.Fatalf("ModeRand subsumed %d interleavings — the witness argument does not hold there", res.Subsumed)
	}
	if res.Explored != 30 {
		t.Fatalf("explored %d, want 30", res.Explored)
	}
}

// TestSubsumptionAccountingParity: subsumed interleavings count toward
// MaxInterleavings, enter the journal, and resume exactly like executed
// ones — an interrupted pruned session picks up where it left off.
func TestSubsumptionAccountingParity(t *testing.T) {
	s := townReportScenario(t)
	capped, err := Run(s, Config{Mode: ModeERPi, MaxInterleavings: 10, SubsumptionTable: testSubTable})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Explored != 10 || capped.Exhausted {
		t.Fatalf("explored %d (exhausted=%v), want the cap of 10 — subsumed skips must consume budget",
			capped.Explored, capped.Exhausted)
	}

	dir := t.TempDir()
	journal, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(s, Config{Mode: ModeERPi, Workers: 1, Journal: journal, SubsumptionTable: testSubTable})
	if err != nil {
		t.Fatal(err)
	}
	if first.Explored != 19 || !first.Exhausted || first.Subsumed == 0 {
		t.Fatalf("journaled run: explored %d exhausted=%v subsumed=%d, want full pruned exhaustion",
			first.Explored, first.Exhausted, first.Subsumed)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	journal2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	resumed, err := Run(s, Config{Mode: ModeERPi, Journal: journal2, SubsumptionTable: testSubTable})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 19 || resumed.Explored != 0 {
		t.Fatalf("resume after pruned run: resumed %d explored %d — subsumed interleavings must be journaled",
			resumed.Resumed, resumed.Explored)
	}
}

// TestSubsumptionTelemetry: the subsumed counter matches Result.Subsumed
// and the table-bytes gauge tracks held entries.
func TestSubsumptionTelemetry(t *testing.T) {
	s := townReportScenario(t)
	reg := telemetry.New()
	res, err := Run(s, Config{Mode: ModeERPi, Workers: 1, SubsumptionTable: testSubTable, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["runner.subsumed_interleavings"]; got != int64(res.Subsumed) {
		t.Fatalf("counter reports %d subsumed, Result %d", got, res.Subsumed)
	}
	if res.Subsumed == 0 {
		t.Fatal("scenario produced no subsumption to observe")
	}
	if got := snap.Gauges["runner.subsumption_table_bytes"]; got <= 0 {
		t.Fatalf("table bytes gauge = %d, want > 0 after a pruned run", got)
	}
}

// TestSubsumptionFaultArmedBypass: interleavings with armed faults
// neither consult nor populate the table — the quarantine outcome of the
// armed interleaving survives, and the fault-free rest still prunes
// soundly.
func TestSubsumptionFaultArmedBypass(t *testing.T) {
	// One armed interleaving (index 3) that keeps B down: it must be
	// quarantined, exactly as without subsumption — never skipped.
	s := townReportScenario(t)
	res, err := Run(s, Config{
		Mode:    ModeERPi,
		Workers: 1,
		Faults: &fault.Schedule{Faults: []fault.Fault{
			{Kind: fault.CrashReplica, Replica: "B", Interleaving: 3, At: 2, Duration: 10},
		}},
		RetryBackoff:     100 * time.Microsecond,
		SubsumptionTable: testSubTable,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0].Index != 3 {
		t.Fatalf("quarantined %v, want exactly interleaving 3 — an armed interleaving must execute, not be subsumed",
			res.Quarantined)
	}
	if res.Explored != 19 {
		t.Fatalf("explored %d, want 19", res.Explored)
	}
	if res.Subsumed == 0 {
		t.Fatal("the 18 fault-free interleavings should still prune")
	}

	// Every interleaving armed: subsumption must be fully inert, and the
	// outcome stream must match the no-table fault run byte for byte.
	s2 := townReportScenario(t)
	s2.Finalize = AntiEntropy(2)
	crashSchedule := func() *fault.Schedule {
		return &fault.Schedule{Faults: []fault.Fault{
			{Kind: fault.CrashReplica, Replica: "A", At: 3},
		}}
	}
	plain, plainRes := collectOutcomes(t, s2, Config{Mode: ModeERPi, Faults: crashSchedule()})
	pruned, prunedRes := collectOutcomes(t, s2, Config{
		Mode:             ModeERPi,
		Faults:           crashSchedule(),
		SubsumptionTable: testSubTable,
	})
	if prunedRes.Subsumed != 0 {
		t.Fatalf("%d interleavings subsumed with every interleaving fault-armed", prunedRes.Subsumed)
	}
	if string(plain) != string(pruned) || plainRes.Explored != prunedRes.Explored {
		t.Fatal("subsumption table changed outcomes of an all-armed fault run")
	}
}

// TestSubsumptionRePruneFlushesTable: re-pruning rebuilds the exploration
// space, so context hashes recorded against the old enumeration are
// flushed; the run still terminates with the full behavior set.
func TestSubsumptionRePruneFlushesTable(t *testing.T) {
	s := townReportScenario(t)
	base, _ := signatureSet(t, s, Config{Mode: ModeERPi})

	polls := 0
	reg := telemetry.New()
	cfg := Config{
		Mode:             ModeERPi,
		SubsumptionTable: testSubTable,
		PollEvery:        5,
		Telemetry:        reg,
		ConstraintPoll: func() (prune.Config, bool, error) {
			polls++
			if polls == 1 {
				// Report "new" constraints identical to the scenario's: the
				// explorer regenerates (flushing the table) but the space is
				// unchanged, so the behavior set must survive the flush.
				return prune.Config{Grouping: prune.GroupSpec{Extra: [][]event.ID{{0, 1}}}}, true, nil
			}
			return prune.Config{}, false, nil
		},
	}
	pruned, res := signatureSet(t, s, cfg)
	if polls == 0 {
		t.Fatal("constraint poll never ran")
	}
	if strings.Join(base, "\n") != strings.Join(pruned, "\n") {
		t.Fatal("re-pruning with subsumption changed the behavior set")
	}
	if !res.Exhausted {
		t.Fatalf("re-pruned run did not exhaust: explored %d", res.Explored)
	}
}
