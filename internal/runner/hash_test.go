package runner

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/telemetry"
)

// TestRollingMultisetDigestParity is property (c) of the incremental
// suite: the executor's O(1) rolling digest must equal the from-scratch
// multisetHash at every prefix length, and the digest must be order-
// independent (it hashes a multiset, not a sequence).
func TestRollingMultisetDigestParity(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(40)
		il := make(interleave.Interleaving, n)
		for i := range il {
			il[i] = event.ID(r.Intn(64)) // duplicates on purpose: multiset, not set
		}
		var rolling msetDigest
		for pos := 0; pos <= n; pos++ {
			if rolling != multisetHash(il[:pos]) {
				t.Fatalf("trial %d: rolling digest diverged from recompute at prefix %d of %v", trial, pos, il)
			}
			if pos < n {
				rolling.add(msetContribution(il[pos]))
			}
		}
		shuffled := append(interleave.Interleaving(nil), il...)
		r.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if multisetHash(il) != multisetHash(shuffled) {
			t.Fatalf("trial %d: digest is order-dependent: %v vs %v", trial, il, shuffled)
		}
		if n > 0 && multisetHash(il) == multisetHash(il[:n-1]) {
			t.Fatalf("trial %d: dropping an element did not change the digest", trial)
		}
	}
}

// fullHashing returns the scenario with every cluster it builds switched
// to replica.Cluster.SetFullHashing — the reference path that
// re-serializes and re-hashes every replica on every CanonicalSnapshot.
func fullHashing(s Scenario) Scenario {
	build := s.NewCluster
	s.NewCluster = func() (*replica.Cluster, error) {
		c, err := build()
		if err == nil {
			c.SetFullHashing(true)
		}
		return c, err
	}
	return s
}

// TestIncrementalHashingDeterminismPin is the incremental snapshot path's
// acceptance pin at the engine level, in two halves per mode × worker
// count. With the prefix cache on, the outcome stream and Result are
// byte-identical between the incremental snapshot path and the
// full-hashing reference clusters. With subsumption on too, the
// deduplicated signature set and explored count are pinned — and at
// Workers 1, where the skip set is deterministic (the pool's varies with
// timing, see TestSubsumptionSignatureParity), the exact subsumed count
// and outcome stream as well, which is what proves the context hashes
// are byte-identical.
func TestIncrementalHashingDeterminismPin(t *testing.T) {
	for _, mode := range []Mode{ModeERPi, ModeDFS} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(t *testing.T) {
				run := func(full bool, subsume int64) ([]byte, *Result) {
					s := townReportScenario(t)
					if full {
						s = fullHashing(s)
					}
					return collectOutcomes(t, s, Config{
						Mode:             mode,
						Workers:          workers,
						MaxInterleavings: 400,
						PrefixCacheBytes: testBudget,
						SubsumptionTable: subsume,
						Assertions:       []Assertion{municipalityInvariant{}},
					})
				}
				inc, incRes := run(false, 0)
				full, fullRes := run(true, 0)
				if string(inc) != string(full) {
					t.Fatal("incremental hashing changed the outcome stream vs full recompute")
				}
				assertResultsMatch(t, fullRes, incRes)

				subInc, subIncRes := run(false, testSubTable)
				subFull, subFullRes := run(true, testSubTable)
				if sigSetOf(t, subInc) != sigSetOf(t, subFull) {
					t.Fatal("incremental hashing changed the behavior set under subsumption")
				}
				if subIncRes.Explored != subFullRes.Explored {
					t.Fatalf("explored %d incremental vs %d full under subsumption",
						subIncRes.Explored, subFullRes.Explored)
				}
				if workers == 1 {
					if string(subInc) != string(subFull) {
						t.Fatal("sequential subsumption outcome stream diverged between hash modes")
					}
					if subIncRes.Subsumed != subFullRes.Subsumed {
						t.Fatalf("sequential subsumption diverged: %d skips incremental, %d full — "+
							"the context hashes are not byte-identical", subIncRes.Subsumed, subFullRes.Subsumed)
					}
				}
			})
		}
	}
}

// sigSetOf reduces a serialized outcome stream to its deduplicated,
// sorted fingerprint-signature set (the subsumption invariant).
func sigSetOf(t *testing.T, raw []byte) string {
	t.Helper()
	var outcomes []*Outcome
	if err := json.Unmarshal(raw, &outcomes); err != nil {
		t.Fatal(err)
	}
	set := make(map[string]struct{})
	for _, o := range outcomes {
		set[OutcomeSignature(o)] = struct{}{}
	}
	sigs := make([]string, 0, len(set))
	for s := range set {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	return strings.Join(sigs, "\n")
}

// TestIncrementalHashingFaultParity repeats the pin under seeded faults:
// an all-armed crash schedule replays byte-identically with incremental
// hashing on and off (armed interleavings reset nodes mid-run, the
// hardest path for version-keyed caches), at Workers 1 and 8.
func TestIncrementalHashingFaultParity(t *testing.T) {
	crashSchedule := func() *fault.Schedule {
		return &fault.Schedule{Seed: 42, Faults: []fault.Fault{
			{Kind: fault.CrashReplica, Replica: "A", At: 3},
		}}
	}
	for _, workers := range []int{1, 8} {
		s := townReportScenario(t)
		s.Finalize = AntiEntropy(2)
		cfg := Config{
			Mode:             ModeERPi,
			Workers:          workers,
			Faults:           crashSchedule(),
			PrefixCacheBytes: testBudget,
		}
		inc, incRes := collectOutcomes(t, s, cfg)
		cfgFull := cfg
		cfgFull.Faults = crashSchedule()
		full, fullRes := collectOutcomes(t, fullHashing(s), cfgFull)
		if string(inc) != string(full) {
			t.Fatalf("workers=%d: incremental hashing changed a fault run's outcomes", workers)
		}
		assertResultsMatch(t, fullRes, incRes)
	}
}

// TestIncrementalSnapshotTelemetry: an incremental run actually reuses
// cached buffers (bytes_reused > 0, dirty well below replicas×snapshots);
// a run on full-hashing reference clusters reuses nothing.
func TestIncrementalSnapshotTelemetry(t *testing.T) {
	run := func(full bool) telemetry.Snapshot {
		s := townReportScenario(t)
		if full {
			s = fullHashing(s)
		}
		reg := telemetry.New()
		if _, err := Run(s, Config{
			Mode:             ModeERPi,
			Workers:          1,
			PrefixCacheBytes: testBudget,
			SubsumptionTable: testSubTable,
			Telemetry:        reg,
		}); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	inc := run(false)
	if inc.Counters["snapshot.bytes_reused"] == 0 {
		t.Fatal("incremental run reused no snapshot bytes — the version-keyed caches are not wired")
	}
	if inc.Counters["snapshot.dirty_replicas"] == 0 {
		t.Fatal("dirty_replicas = 0: snapshots were never accounted")
	}
	full := run(true)
	if got := full.Counters["snapshot.bytes_reused"]; got != 0 {
		t.Fatalf("full-hashing run reused %d bytes, want 0", got)
	}
	if full.Counters["snapshot.dirty_replicas"] <= inc.Counters["snapshot.dirty_replicas"] {
		t.Fatalf("full run re-serialized %d replicas, incremental %d — incremental should be strictly cheaper",
			full.Counters["snapshot.dirty_replicas"], inc.Counters["snapshot.dirty_replicas"])
	}
}

// TestHashPathAllocBudget is the allocs/op regression gate on the per-
// depth hot path: with per-replica caches warm (clean cluster), one
// CanonicalSnapshot + context hash must stay within a small committed
// allocation budget — the pooled-scratch and hash-of-hashes design is
// what keeps it there, and a regression (e.g. re-serializing clean
// replicas, or a new per-call buffer) fails this test before it shows up
// in benchmarks. CI runs it by name in the bench job.
func TestHashPathAllocBudget(t *testing.T) {
	s := townReportScenario(t)
	cluster, err := s.NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range cluster.IDs() {
		n, _ := cluster.Node(id)
		if _, err := n.State.Apply(replica.Op{Name: "set.add", Args: []string{"x"}}); err != nil {
			t.Fatal(err)
		}
	}
	slots := make([]eventSlot, 4)
	slots[1] = eventSlot{payload: []byte("payload"), flags: slotCaptured}
	slots[2].obs = "ok"
	slots[3].flags = slotFailed
	// Warm the caches and the scratch.
	if _, err := cluster.CanonicalSnapshot(); err != nil {
		t.Fatal(err)
	}
	snap, _ := cluster.CanonicalSnapshot()
	var sc ctxScratch
	_ = contextHash(&sc, snap, slots)

	const budget = 2 // measured: the ClusterSnapshot and its Bufs slice; the hash and the context digest allocate nothing
	allocs := testing.AllocsPerRun(200, func() {
		snap, err := cluster.CanonicalSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Dirty != 0 {
			t.Fatalf("clean cluster re-serialized %d replicas", snap.Dirty)
		}
		_ = snap.Hash()
		_ = contextHash(&sc, snap, slots)
	})
	if allocs > budget {
		t.Fatalf("hash hot path allocates %.0f objects/op, budget %d — the incremental path regressed", allocs, budget)
	}

	// The executor's check path snapshots into one reused ClusterSnapshot:
	// on a clean cluster that allocates nothing at all (contextHash's
	// scratch is what the budget above already covers).
	var reused replica.ClusterSnapshot
	lean := testing.AllocsPerRun(200, func() {
		if err := cluster.SnapshotInto(&reused); err != nil {
			t.Fatal(err)
		}
	})
	if lean != 0 {
		t.Fatalf("snapshot into a reused ClusterSnapshot allocates %.0f objects/op, want 0", lean)
	}
}
