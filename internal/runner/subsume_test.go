package runner

import (
	"context"
	"crypto/sha256"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
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
	return sortedSigs(seen), res
}

// sortedSigs lists a signature set in sorted order.
func sortedSigs(seen map[string]struct{}) []string {
	sigs := make([]string, 0, len(seen))
	for sig := range seen {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	return sigs
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

// TestSubsumeTableLexRule pins the table's witness rule. The lexicographic
// explorers yield in strictly increasing order, so the table keys its
// witness by exploration index: a frontier skips only an arrival with a
// strictly greater index via a different prefix; the same literal prefix
// never skips, whatever its index; an index is never its own witness; and
// a smaller arrival is adopted as the entry's new witness.
func TestSubsumeTableLexRule(t *testing.T) {
	tbl := newSubsumeTable(testSubTable)
	ctx, rem := hashOf(1), msetOf(2)

	if _, skip, delta := tbl.visit(ctx, rem, 0, interleave.Interleaving{2, 1}, 5); skip || delta != subsumeEntryBytes {
		t.Fatalf("first visit: skip=%v delta=%d, want record of %d bytes", skip, delta, subsumeEntryBytes)
	}
	// A retry of the recorder: never self-subsume.
	if _, skip, _ := tbl.visit(ctx, rem, 0, interleave.Interleaving{2, 1}, 5); skip {
		t.Fatal("a retry of the recording index must not self-subsume")
	}
	// A later interleaving re-walking the same literal prefix (a prefix-cache
	// restore): its completion from here is itself, so it must run.
	if _, skip, _ := tbl.visit(ctx, rem, 0, interleave.Interleaving{2, 1}, 9); skip {
		t.Fatal("a greater index on the same literal prefix must not be subsumed")
	}
	// An index is never its own witness, even when its prefix hash differs.
	if _, skip, _ := tbl.visit(ctx, rem, 0, interleave.Interleaving{3, 0}, 5); skip {
		t.Fatal("the recording index must not subsume itself via another prefix")
	}
	// A greater index via a different prefix: subsumed.
	if _, skip, _ := tbl.visit(ctx, rem, 0, interleave.Interleaving{3, 0}, 7); !skip {
		t.Fatal("a greater index via another prefix must be subsumed")
	}
	// A smaller index: adopted, not skipped.
	if _, skip, _ := tbl.visit(ctx, rem, 0, interleave.Interleaving{1, 2}, 3); skip {
		t.Fatal("a smaller index must execute (it becomes the witness)")
	}
	// The old witness is now the greater index: subsumed on return.
	if _, skip, _ := tbl.visit(ctx, rem, 0, interleave.Interleaving{2, 1}, 5); !skip {
		t.Fatal("the old witness must be subsumed after adoption")
	}
	// The equal-prefix guard follows the adopted prefix.
	if _, skip, _ := tbl.visit(ctx, rem, 0, interleave.Interleaving{1, 2}, 8); skip {
		t.Fatal("a re-walk of the adopted prefix must not be subsumed")
	}
	// Different frontier (other remaining multiset): independent entry.
	if _, skip, _ := tbl.visit(ctx, msetOf(3), 0, interleave.Interleaving{3, 0}, 7); skip {
		t.Fatal("distinct frontier must not be subsumed")
	}
	if len(tbl.entries) != 2 {
		t.Fatalf("table has %d entries, want 2", len(tbl.entries))
	}

	if freed := tbl.invalidate(); freed != 2*subsumeEntryBytes || len(tbl.entries) != 0 || tbl.head != nil {
		t.Fatalf("invalidate freed=%d len=%d, want full flush", freed, len(tbl.entries))
	}
	// After a flush the old frontier records (and executes) again.
	if _, skip, _ := tbl.visit(ctx, rem, 0, interleave.Interleaving{3, 0}, 7); skip {
		t.Fatal("flushed frontier must not subsume")
	}
}

// TestSubsumeTableEviction pins the byte budget: entries are fixed-size
// whatever their prefix length, FIFO eviction keeps the table under
// budget, a full table recycles the entry it evicts instead of
// allocating, and an entry larger than the whole budget is rejected
// rather than wedging the table.
func TestSubsumeTableEviction(t *testing.T) {
	long := make(interleave.Interleaving, 40)
	for i := range long {
		long[i] = event.ID(i)
	}
	if _, _, delta := newSubsumeTable(testSubTable).visit(hashOf(1), msetOf(1), 0, long, 1); delta != subsumeEntryBytes {
		t.Fatalf("a 40-event prefix accounts %d bytes, want the fixed %d", delta, subsumeEntryBytes)
	}

	budget := int64(3 * subsumeEntryBytes)
	tbl := newSubsumeTable(budget)
	var held int64
	for i := byte(0); i < 5; i++ {
		_, _, delta := tbl.visit(hashOf(i), msetOf(i), 0, interleave.Interleaving{1, 2}, int(i)+1)
		held += delta
	}
	if len(tbl.entries) != 3 {
		t.Fatalf("table holds %d entries over a 3-entry budget", len(tbl.entries))
	}
	if held != budget {
		t.Fatalf("deltas sum to %d bytes, want the full budget %d", held, budget)
	}
	// The oldest entries were evicted: frontier 0 records afresh (no skip
	// even for a greater index via another prefix).
	if _, skip, _ := tbl.visit(hashOf(0), msetOf(0), 0, interleave.Interleaving{2, 1}, 9); skip {
		t.Fatal("evicted frontier must not subsume")
	}

	// Once full, an insert reuses the entry it evicts: visits of fresh
	// frontiers allocate nothing.
	fresh := byte(100)
	prefix := interleave.Interleaving{1, 2}
	if allocs := testing.AllocsPerRun(100, func() {
		fresh++
		if _, _, delta := tbl.visit(hashOf(fresh), msetOf(fresh), 0, prefix, int(fresh)); delta != 0 {
			t.Fatalf("an insert into a full table accounts %d bytes, want 0", delta)
		}
	}); allocs != 0 {
		t.Fatalf("an insert into a full table allocates %.0f objects, want 0", allocs)
	}

	// Eviction order is insertion order: a 3-entry table must always hold
	// exactly the three youngest frontiers.
	order := []byte{40, 9, 33, 2, 41}
	fifo := newSubsumeTable(budget)
	holds := func(i byte) bool {
		_, ok := fifo.entries[subsumeKey{ctx: hashOf(i), rem: msetOf(i)}]
		return ok
	}
	for n, i := range order {
		fifo.visit(hashOf(i), msetOf(i), 0, interleave.Interleaving{1, 2}, n+1)
		for m, j := range order[:n+1] {
			if want := m > n-3; holds(j) != want {
				t.Fatalf("after inserting %v: frontier %d held=%v, want %v (FIFO)", order[:n+1], j, !want, want)
			}
		}
	}

	// invalidate empties the queue with the map, and the next inserts
	// start a fresh FIFO.
	fifo.invalidate()
	if fifo.head != nil || fifo.tail != nil {
		t.Fatal("eviction queue not empty after invalidate")
	}
	for i := byte(0); i < 4; i++ {
		fifo.visit(hashOf(i), msetOf(i), 0, interleave.Interleaving{1, 2}, int(i)+1)
	}
	if len(fifo.entries) != 3 || holds(0) || !holds(1) || !holds(3) {
		t.Fatalf("after invalidate: %d entries (0 held=%v), want the 3 youngest of 4", len(fifo.entries), holds(0))
	}

	huge := newSubsumeTable(subsumeEntryBytes - 1)
	if _, skip, delta := huge.visit(hashOf(9), msetOf(9), 0, interleave.Interleaving{1}, 1); skip || delta != 0 || len(huge.entries) != 0 {
		t.Fatalf("over-budget entry: skip=%v delta=%d len=%d, want rejection", skip, delta, len(huge.entries))
	}
}

// TestSubsumeTableStress hammers the table from many goroutines —
// concurrent visits across colliding frontiers, budget pressure forcing
// eviction, and periodic invalidation — and checks that the bytes the
// visits and invalidations report land exactly on the surviving entries,
// and that the eviction queue threads every mapped entry once. CI runs it
// under -race.
func TestSubsumeTableStress(t *testing.T) {
	const (
		workers = 8
		visits  = 2000
	)
	budget := int64(200 * subsumeEntryBytes)
	tbl := newSubsumeTable(budget)
	var held atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			prefixes := []interleave.Interleaving{{0, 1, 2, 3}, {0, 2, 1, 3}, {3, 2, 1, 0}}
			for i := 0; i < visits; i++ {
				ctx := hashOf(byte(r.Intn(64)))
				ctx[1] = byte(r.Intn(8))
				// Random indices and prefixes: skips, adoptions and equal-
				// prefix arrivals all race on the same entries.
				_, _, delta := tbl.visit(ctx, msetOf(byte(r.Intn(8))), 0, prefixes[r.Intn(len(prefixes))], 1+r.Intn(100))
				held.Add(delta)
				if i%500 == 250 && w == 0 {
					held.Add(-tbl.invalidate())
				}
			}
		}(w)
	}
	wg.Wait()

	if got := held.Load(); got > budget || got < 0 {
		t.Fatalf("bytes held %d outside [0, %d]", got, budget)
	}
	want := int64(len(tbl.entries)) * subsumeEntryBytes
	if got := held.Load(); got != want {
		t.Fatalf("byte accounting drifted: held %d, %d entries imply %d", got, len(tbl.entries), want)
	}
	queued := 0
	for e := tbl.head; e != nil; e = e.next {
		if tbl.entries[e.key] != e {
			t.Fatalf("queued entry %x is not the one its key maps", e.key.ctx[:2])
		}
		queued++
	}
	if queued != len(tbl.entries) {
		t.Fatalf("queue threads %d entries, map holds %d", queued, len(tbl.entries))
	}
	freed := tbl.invalidate()
	if freed != want || len(tbl.entries) != 0 {
		t.Fatalf("final invalidate freed %d (want %d), left %d entries", freed, want, len(tbl.entries))
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

// TestSubsumptionFaultArmedBypass: a run with scheduled faults gets no
// table. A skip relies on a smaller completion running fault-free, and an
// armed one reports its faulted outcome instead, so nothing is subsumed:
// the interleaving armed to keep B down is quarantined as without the
// table, and an all-armed run streams the table-off outcomes byte for byte.
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
	if res.Subsumed != 0 {
		t.Fatalf("%d interleavings subsumed with a fault scheduled", res.Subsumed)
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

// claimState is a grow-only set whose claim fails on an element it
// already holds, so two orders can leave one state and differ only in
// which claim failed (or in what a read observed).
type claimState struct {
	elems []string // sorted
	ver   uint64
}

func (s *claimState) StateVersion() uint64 { return s.ver }

func (s *claimState) Apply(op replica.Op) (string, error) {
	switch op.Name {
	case "claim":
		i, held := slices.BinarySearch(s.elems, op.Args[0])
		if held {
			return "", replica.ErrFailedOp
		}
		s.elems = slices.Insert(s.elems, i, op.Args[0])
		s.ver++
		return "", nil
	case "read":
		return strings.Join(s.elems, ","), nil
	default:
		return "", errors.New("unknown op " + op.Name)
	}
}

func (s *claimState) SyncPayload() ([]byte, error) { return s.Snapshot() }

func (s *claimState) ApplySync(payload []byte) error {
	s.ver++
	for _, e := range strings.Split(string(payload), ",") {
		if i, held := slices.BinarySearch(s.elems, e); e != "" && !held {
			s.elems = slices.Insert(s.elems, i, e)
		}
	}
	return nil
}

func (s *claimState) Snapshot() ([]byte, error) { return []byte(s.Fingerprint()), nil }

func (s *claimState) Restore(snapshot []byte) error {
	s.elems = nil
	return s.ApplySync(snapshot)
}

func (s *claimState) Fingerprint() string { return strings.Join(s.elems, ",") }

// claimScenario records a workload over three claimState replicas; its
// Finalize counts the interleavings that reach it.
func claimScenario(t *testing.T, finalized *atomic.Int64, record func(*Recorder)) Scenario {
	t.Helper()
	newCluster := func() (*replica.Cluster, error) {
		return replica.NewCluster(map[event.ReplicaID]replica.State{
			"A": &claimState{}, "B": &claimState{}, "C": &claimState{},
		}), nil
	}
	cluster, err := newCluster()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(cluster)
	record(rec)
	log, err := rec.Log()
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Name:       "claims",
		Log:        log,
		NewCluster: newCluster,
		Finalize: func(*replica.Cluster) error {
			finalized.Add(1)
			return nil
		},
	}
}

// threeClaims is three claims on three replicas: every order commutes,
// and no interior depth reaches the check stride, so any skip is a
// final-frontier skip.
func threeClaims(rec *Recorder) {
	rec.Update("A", "claim", "x")
	rec.Update("B", "claim", "y")
	rec.Update("C", "claim", "z")
}

// TestFinalFrontierSkipsCommutingTail: the first two DFS interleavings
// differ only in the order of their last two commuting events, so the
// second leaves the exact context the first did and skips Finalize; the
// signature set is the table-off one, with and without the prefix cache.
func TestFinalFrontierSkipsCommutingTail(t *testing.T) {
	for _, cache := range []int64{0, testBudget} {
		var finalized atomic.Int64
		s := claimScenario(t, &finalized, threeClaims)
		base := Config{Mode: ModeDFS, Workers: 1, MaxInterleavings: 2, PrefixCacheBytes: cache}
		off, offRes := signatureSet(t, s, base)
		offFinalized := finalized.Swap(0)
		on := base
		on.SubsumptionTable = testSubTable
		sigs, res := signatureSet(t, s, on)
		if got := finalized.Load(); got != offFinalized-1 || offFinalized != 2 {
			t.Fatalf("cache=%d: Finalize ran %d times with the table, %d without; want one fewer of 2", cache, got, offFinalized)
		}
		if res.Subsumed != 1 || offRes.Subsumed != 0 || res.Explored != offRes.Explored {
			t.Fatalf("cache=%d: subsumed %d of %d (table off: %d of %d), want 1 of 2",
				cache, res.Subsumed, res.Explored, offRes.Subsumed, offRes.Explored)
		}
		if !slices.Equal(sigs, off) {
			t.Fatalf("cache=%d: final-frontier skip changed the signature set:\n on  %q\n off %q", cache, sigs, off)
		}

		// Exhaustively, all six orders leave one context: one witness runs.
		finalized.Store(0)
		on.MaxInterleavings = 0
		if _, res = signatureSet(t, s, on); res.Subsumed != 5 || finalized.Load() != 1 {
			t.Fatalf("cache=%d: exhaustive run subsumed %d of %d with %d Finalize calls, want 5 of 6 and 1",
				cache, res.Subsumed, res.Explored, finalized.Load())
		}
	}
}

// TestFinalFrontierKeepsDistinctObservationsAndFailedOps: two orders that
// leave equal replica states but a different observation, or a different
// failed op, are different final contexts — neither is ever skipped.
func TestFinalFrontierKeepsDistinctObservationsAndFailedOps(t *testing.T) {
	for name, record := range map[string]func(*Recorder){
		"observation": func(rec *Recorder) {
			rec.Update("A", "claim", "x")
			rec.Observe("A", "read")
		},
		"failed-op": func(rec *Recorder) {
			rec.Update("A", "claim", "x")
			rec.Update("A", "claim", "x")
		},
	} {
		t.Run(name, func(t *testing.T) {
			var finalized atomic.Int64
			s := claimScenario(t, &finalized, record)
			off, _ := signatureSet(t, s, Config{Mode: ModeDFS, Workers: 1})
			finalized.Store(0)
			on, res := signatureSet(t, s, Config{Mode: ModeDFS, Workers: 1, SubsumptionTable: testSubTable})
			if res.Subsumed != 0 || finalized.Load() != 2 {
				t.Fatalf("subsumed %d, Finalize ran %d times; want 0 and 2", res.Subsumed, finalized.Load())
			}
			if len(on) != 2 || !slices.Equal(on, off) {
				t.Fatalf("signature set %q, want the table-off %q (2 behaviours)", on, off)
			}
		})
	}
}

// TestFinalFrontierFaultArmedBypass: a run with a fault scheduled (here a
// partition armed in one interleaving, with no sync to drop, so its
// context is the same as its neighbours') checks no final frontier: every
// order runs to Finalize.
func TestFinalFrontierFaultArmedBypass(t *testing.T) {
	var finalized atomic.Int64
	s := claimScenario(t, &finalized, threeClaims)
	var ran []int
	res, err := Run(s, Config{
		Mode:    ModeDFS,
		Workers: 1,
		Faults: &fault.Schedule{Faults: []fault.Fault{
			{Kind: fault.Partition, A: "A", B: "B", Interleaving: 2, Duration: 3},
		}},
		SubsumptionTable: testSubTable,
		OnOutcome:        func(o *Outcome) { ran = append(ran, o.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ran, []int{1, 2, 3, 4, 5, 6}) || res.Subsumed != 0 || finalized.Load() != 6 {
		t.Fatalf("outcomes for %v, %d subsumed, %d Finalize calls; want all six, 0 and 6",
			ran, res.Subsumed, finalized.Load())
	}
}

// TestFinalFrontierRetryNeverSelfSubsumes: re-running an index — a retry,
// or a distributed worker re-executing a requeued range — finds the
// frontier it recorded itself and must run to Finalize again.
func TestFinalFrontierRetryNeverSelfSubsumes(t *testing.T) {
	var finalized atomic.Int64
	s := claimScenario(t, &finalized, threeClaims)
	x, err := NewExecutor(s, Config{Mode: ModeDFS, SubsumptionTable: testSubTable})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, second := interleave.Interleaving{0, 1, 2}, interleave.Interleaving{0, 2, 1}
	for _, step := range []struct {
		il      interleave.Interleaving
		index   int
		subsume bool
	}{
		{first, 5, false},
		{first, 5, false}, // the same index again: never its own witness
		{second, 6, true}, // a greater index, another order: subsumed
		{second, 4, false},
		{first, 5, true}, // index 4 is the frontier's witness now
	} {
		_, _, err := x.Execute(ctx, step.il, step.index)
		if got := errors.Is(err, ErrSubsumed); got != step.subsume || err != nil && !got {
			t.Fatalf("Execute(%v, #%d) = %v, want subsumed=%v", step.il, step.index, err, step.subsume)
		}
	}
	if finalized.Load() != 3 {
		t.Fatalf("Finalize ran %d times, want 3", finalized.Load())
	}

	// Through the engine: Finalize fails once, after index 1 recorded its
	// final frontier; the retry must execute, and index 2 is the one skipped.
	finalized.Store(0)
	flaky := s
	flaky.Finalize = func(*replica.Cluster) error {
		if finalized.Add(1) == 1 {
			return errors.New("transient finalize failure")
		}
		return nil
	}
	var ran []int
	res, err := Run(flaky, Config{
		Mode:             ModeDFS,
		Workers:          1,
		MaxInterleavings: 2,
		SubsumptionTable: testSubTable,
		OnOutcome:        func(o *Outcome) { ran = append(ran, o.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 || !slices.Equal(ran, []int{1}) || res.Subsumed != 1 || finalized.Load() != 2 {
		t.Fatalf("quarantined %v, outcomes for %v, %d subsumed, %d Finalize calls; want none, [1], 1 and 2",
			res.Quarantined, ran, res.Subsumed, finalized.Load())
	}
}

// TestFinalFrontierWorkerParity: on a workload whose orders share final
// contexts through syncs, the signature set with the table is the
// table-off one at Workers 1 and 8, and one worker skips Finalize.
func TestFinalFrontierWorkerParity(t *testing.T) {
	var finalized atomic.Int64
	s := claimScenario(t, &finalized, func(rec *Recorder) {
		rec.Update("A", "claim", "x")
		rec.Update("B", "claim", "y")
		rec.Sync("A", "B")
		rec.Update("C", "claim", "x")
		rec.Sync("B", "C")
		rec.Observe("C", "read")
	})
	off, _ := signatureSet(t, s, Config{Mode: ModeDFS, Workers: 1})
	for _, workers := range []int{1, 8} {
		on, res := signatureSet(t, s, Config{Mode: ModeDFS, Workers: workers, SubsumptionTable: testSubTable})
		if !slices.Equal(on, off) {
			t.Fatalf("workers %d: signature set with the table (%d) differs from the table-off set (%d)", workers, len(on), len(off))
		}
		if workers == 1 && res.Subsumed == 0 {
			t.Fatal("workers 1: nothing subsumed")
		}
	}
}

// claimsThenRead is five claims and a read on three replicas: every order
// of the claims commutes, and the read (event 4) tells an order that
// reads before A's second claim from one that reads after it.
func claimsThenRead(rec *Recorder) {
	rec.Update("A", "claim", "x") // 0
	rec.Update("B", "claim", "y") // 1
	rec.Update("C", "claim", "z") // 2
	rec.Update("A", "claim", "w") // 3
	rec.Observe("A", "read")      // 4
	rec.Update("B", "claim", "v") // 5
}

// The dead-prefix fixtures over claimsThenRead: deadWitness (#1) runs to
// the end; deadFirst (#2) reaches #1's depth-4 frontier via another
// prefix and is abandoned there, so [1 0 2 3] is dead; deadLeaf extends
// it; liveLeaf does not.
var (
	deadWitness = interleave.Interleaving{0, 1, 2, 3, 4, 5}
	deadFirst   = interleave.Interleaving{1, 0, 2, 3, 4, 5}
	deadLeaf    = interleave.Interleaving{1, 0, 2, 3, 5, 4}
	liveLeaf    = interleave.Interleaving{1, 0, 2, 4, 3, 5}
)

// killPrefix runs the witness (#1) and the interleaving it subsumes at
// depth 4 (#2) on x, leaving [1 0 2 3] as x's dead prefix.
func killPrefix(t *testing.T, x *Executor) {
	t.Helper()
	ctx := context.Background()
	if _, _, err := x.Execute(ctx, deadWitness, 1); err != nil {
		t.Fatalf("witness #1: %v", err)
	}
	if _, _, err := x.Execute(ctx, deadFirst, 2); !errors.Is(err, ErrSubsumed) {
		t.Fatalf("#2 = %v, want subsumed at its depth-4 frontier", err)
	}
}

// TestDeadPrefixSkipsLaterSubtree: once #2 is abandoned at an interior
// frontier, the next leaf under the same prefix is subsumed before
// replay — no event executed or skipped, no prefix-cache lookup — while a
// leaf outside the subtree still runs.
func TestDeadPrefixSkipsLaterSubtree(t *testing.T) {
	var finalized atomic.Int64
	s := claimScenario(t, &finalized, claimsThenRead)
	reg := telemetry.New()
	x, err := NewExecutor(s, Config{Mode: ModeDFS, SubsumptionTable: testSubTable, PrefixCacheBytes: testBudget, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	killPrefix(t, x)
	counters := func() [4]int64 {
		c := reg.Snapshot().Counters
		return [4]int64{c["runner.events_executed"], c["runner.events_skipped"],
			c["runner.prefix_cache_hits"], c["runner.prefix_cache_misses"]}
	}
	before := counters()
	if _, _, err := x.Execute(context.Background(), deadLeaf, 3); !errors.Is(err, ErrSubsumed) {
		t.Fatalf("leaf under the dead prefix = %v, want ErrSubsumed", err)
	}
	if after := counters(); after != before {
		t.Fatalf("dead-prefix skip moved executed/skipped/hits/misses %v -> %v, want no replay and no lookup", before, after)
	}
	if got := reg.Snapshot().Counters["runner.subsumed_dead_prefix"]; got != 1 {
		t.Fatalf("runner.subsumed_dead_prefix = %d, want 1", got)
	}

	o, _, err := x.Execute(context.Background(), liveLeaf, 4)
	if err != nil || o == nil {
		t.Fatalf("leaf outside the dead subtree = %v, want an outcome", err)
	}
	if after := counters(); after[2]+after[3] != before[2]+before[3]+1 {
		t.Fatalf("leaf outside the subtree did not look the cache up: %v -> %v", before, after)
	}
	if finalized.Load() != 2 {
		t.Fatalf("Finalize ran %d times, want 2 (#1 and #4)", finalized.Load())
	}
}

// TestDeadPrefixFaultArmedBypass: an executor with a fault scheduled keeps
// no table, so no prefix dies: the order the witness would subsume runs,
// and so does the armed leaf, which keeps the outcome its fault makes: B
// restarts from genesis just before its second claim, so only that claim
// survives.
func TestDeadPrefixFaultArmedBypass(t *testing.T) {
	var finalized atomic.Int64
	s := claimScenario(t, &finalized, claimsThenRead)
	x, err := NewExecutor(s, Config{
		Mode: ModeDFS,
		Faults: &fault.Schedule{Faults: []fault.Fault{
			{Kind: fault.CrashReplica, Replica: "B", Interleaving: 3, At: 4},
		}},
		SubsumptionTable: testSubTable,
	})
	if err != nil {
		t.Fatal(err)
	}
	var o *Outcome
	for i, il := range []interleave.Interleaving{deadWitness, deadFirst, deadLeaf} {
		if o, _, err = x.Execute(context.Background(), il, i+1); err != nil || o == nil {
			t.Fatalf("#%d = %v, want it executed", i+1, err)
		}
	}
	if !o.FaultArmed || o.Fingerprints["B"] != "v" {
		t.Fatalf("armed=%v B=%q, want the faulted outcome (armed, B=\"v\")", o.FaultArmed, o.Fingerprints["B"])
	}
}

// TestDeadPrefixForgottenAtReprune: a moved re-prune generation forgets
// the dead prefix with the cache on and off. The pool flushes the shared
// table at the same barrier; after both, the old subtree's leaf has no
// witness left and must run.
func TestDeadPrefixForgottenAtReprune(t *testing.T) {
	for _, cache := range []int64{0, testBudget} {
		var finalized atomic.Int64
		s := claimScenario(t, &finalized, claimsThenRead)
		reg := telemetry.New()
		x, err := NewExecutor(s, Config{Mode: ModeDFS, SubsumptionTable: testSubTable, PrefixCacheBytes: cache, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		killPrefix(t, x)
		x.sub.invalidate()
		o, _, err := x.execute(context.Background(), workItem{index: 3, il: deadLeaf, pivot: -1, gen: 1})
		if err != nil || o == nil {
			t.Fatalf("cache=%d: leaf of the old dead subtree in a new generation = %v, want it executed", cache, err)
		}
		if got := reg.Snapshot().Counters["runner.subsumed_dead_prefix"]; got != 0 {
			t.Fatalf("cache=%d: %d dead-prefix skips across a re-prune, want 0", cache, got)
		}
	}
}

// claimsWithSyncs is seven events whose 5 040 DFS orders share interior
// frontiers through syncs, so many prefixes die.
func claimsWithSyncs(rec *Recorder) {
	rec.Update("A", "claim", "x")
	rec.Update("B", "claim", "y")
	rec.Sync("A", "B")
	rec.Update("C", "claim", "x")
	rec.Update("A", "claim", "w")
	rec.Sync("B", "C")
	rec.Observe("C", "read")
}

// TestDeadPrefixOutOfOrderExecute: a distributed worker may run a later
// index range before an earlier one (a requeued range). Executing the
// DFS enumeration's second half before its first still skips subtrees
// under dead prefixes, and the signature set equals the in-order one and
// the table-off one.
func TestDeadPrefixOutOfOrderExecute(t *testing.T) {
	var finalized atomic.Int64
	s := claimScenario(t, &finalized, claimsWithSyncs)
	// The table-off run supplies the enumeration and the reference set.
	var all []*Outcome
	res, err := Run(s, Config{Mode: ModeDFS, Workers: 1, OnOutcome: func(o *Outcome) { all = append(all, o) }})
	if err != nil || !res.Exhausted || len(all) != res.Explored {
		t.Fatalf("enumeration: %v, %d outcomes of %d", err, len(all), res.Explored)
	}
	offSeen := make(map[string]struct{})
	for _, o := range all {
		offSeen[OutcomeSignature(o)] = struct{}{}
	}
	off := sortedSigs(offSeen)
	execute := func(order []*Outcome) ([]string, int64) {
		t.Helper()
		reg := telemetry.New()
		x, err := NewExecutor(s, Config{Mode: ModeDFS, SubsumptionTable: testSubTable, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]struct{})
		for _, o := range order {
			got, _, err := x.Execute(context.Background(), o.Interleaving, o.Index)
			switch {
			case errors.Is(err, ErrSubsumed):
			case err != nil:
				t.Fatalf("#%d: %v", o.Index, err)
			default:
				seen[OutcomeSignature(got)] = struct{}{}
			}
		}
		return sortedSigs(seen), reg.Snapshot().Counters["runner.subsumed_dead_prefix"]
	}
	inOrder, _ := execute(all)
	half := len(all) / 2
	outOfOrder, dead := execute(append(slices.Clone(all[half:]), all[:half]...))
	t.Logf("%d interleavings, %d signatures, %d dead-prefix skips out of order", len(all), len(off), dead)
	if dead == 0 {
		t.Fatal("out-of-order run skipped nothing under a dead prefix")
	}
	if !slices.Equal(inOrder, off) || !slices.Equal(outOfOrder, off) {
		t.Fatalf("signature sets: table off %d, in order %d, out of order %d — want all equal",
			len(off), len(inOrder), len(outOfOrder))
	}
}
