package runner

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/telemetry"
)

// testBudget is a prefix-cache byte budget comfortably above what the
// townreport scenario's snapshots need.
const testBudget = 1 << 20

// TestPrefixCacheStack is the truth table of the snapshot stack: lookup
// pops to the common prefix with the last path and restores the top, never
// restores an interleaving's full length, a push over the byte budget is
// refused, and invalidate frees everything.
func TestPrefixCacheStack(t *testing.T) {
	il := func(ids ...int) interleave.Interleaving {
		out := make(interleave.Interleaving, len(ids))
		for i, id := range ids {
			out[i] = event.ID(id)
		}
		return out
	}
	snap := func(size int64) *prefixSnapshot { return &prefixSnapshot{size: size} }
	lookup := func(c *prefixCache, l interleave.Interleaving, want *prefixSnapshot, wantDepth, wantDiv int, wantFreed int64) {
		t.Helper()
		top, div, freed := c.lookup(l)
		if top.snap != want || top.depth != wantDepth || div != wantDiv || freed != wantFreed {
			t.Fatalf("lookup(%v) = (%p, depth %d, divergence %d, freed %d), want (%p, %d, %d, %d)",
				l, top.snap, top.depth, div, freed, want, wantDepth, wantDiv, wantFreed)
		}
	}

	c := newPrefixCache(100, 4)
	lookup(c, il(1, 2, 3, 4, 5), nil, 0, 0, 0)
	s1, s2, s3 := snap(20), snap(20), snap(20)
	for d, s := range []*prefixSnapshot{s1, s2, s3} {
		if !c.insert(d+1, s) {
			t.Fatalf("push at depth %d refused", d+1)
		}
	}
	if c.bytes != 60 {
		t.Fatalf("bytes = %d after three pushes, want 60", c.bytes)
	}

	// A path that shares the whole stack pops nothing and restores the top.
	lookup(c, il(1, 2, 3, 9, 5), s3, 3, 3, 0)
	// Diverging at depth 2 pops the depth-3 entry.
	lookup(c, il(1, 2, 7, 3, 5), s2, 2, 2, 20)
	// A full-length match is not restored for the interleaving itself:
	// the entry at depth len(il) is popped and the one below restored.
	c.insert(3, s3)
	lookup(c, il(1, 2, 7), s2, 2, 3, 20)
	// No shared prefix empties the stack.
	lookup(c, il(9, 8, 7, 6, 5), nil, 0, 0, 40)
	if c.bytes != 0 || len(c.stack) != 0 {
		t.Fatalf("after a full pop: bytes = %d, %d entries, want 0, 0", c.bytes, len(c.stack))
	}

	// A push that would exceed the budget is refused and keeps nothing;
	// a later one that fits is still taken.
	if !c.insert(1, snap(60)) {
		t.Fatal("push within budget refused")
	}
	if c.insert(2, snap(50)) {
		t.Fatal("push over budget accepted")
	}
	if !c.insert(3, snap(40)) || c.bytes != 100 || len(c.stack) != 2 {
		t.Fatalf("after a refusal: bytes = %d, %d entries, want 100, 2", c.bytes, len(c.stack))
	}

	if freed := c.invalidate(); freed != 100 {
		t.Fatalf("invalidate freed %d, want 100", freed)
	}
	// Invalidation also forgets the path: nothing is shared with it.
	lookup(c, il(9, 8, 7, 6, 5), nil, 0, 0, 0)
}

// TestPrefixCacheDeterminismPin is the tentpole's acceptance pin: the
// outcome stream and Result are byte-identical with the prefix cache on
// vs. off, at Workers: 1 and Workers: 8, in both the pruned and the
// exhaustive mode.
func TestPrefixCacheDeterminismPin(t *testing.T) {
	for _, mode := range []Mode{ModeERPi, ModeDFS} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(t *testing.T) {
				run := func(cacheBytes int64) ([]byte, *Result) {
					s := townReportScenario(t)
					return collectOutcomes(t, s, Config{
						Mode:             mode,
						Workers:          workers,
						MaxInterleavings: 400,
						PrefixCacheBytes: cacheBytes,
						Assertions:       []Assertion{municipalityInvariant{}},
					})
				}
				off, offRes := run(0)
				on, onRes := run(testBudget)
				if string(off) != string(on) {
					t.Fatal("prefix cache changed the outcome stream")
				}
				assertResultsMatch(t, offRes, onRes)
				if mode == ModeERPi && len(offRes.Violations) == 0 {
					t.Fatal("pin is vacuous: the scenario must produce violations")
				}
			})
		}
	}
}

// TestPrefixCacheDeterminismUnderFaults extends the pin to a seeded
// fault schedule: fault-carrying interleavings (including mid-suffix
// crashes) must fall back to a clean genesis replay, and the run must be
// byte-identical to the cache-off engine. The probabilistic faults make
// armed and unarmed interleavings interleave, so cached snapshots built
// on clean runs sit in the cache while crashes replay from genesis.
func TestPrefixCacheDeterminismUnderFaults(t *testing.T) {
	sched := &fault.Schedule{Seed: 11, Faults: []fault.Fault{
		// Coin-flip crash of A mid-interleaving with immediate restart.
		{Kind: fault.CrashReplica, Replica: "A", At: 3, Prob: 0.5},
		// Interleaving 4 only: B stays down, so index 4 quarantines.
		{Kind: fault.CrashReplica, Replica: "B", Interleaving: 4, At: 2, Duration: 10},
		// Coin-flip partition of the municipality link.
		{Kind: fault.Partition, A: "A", B: "M", At: 0, Duration: 10, Prob: 0.5},
	}}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func(cacheBytes int64) ([]byte, *Result) {
				s := townReportScenario(t)
				s.Finalize = AntiEntropy(2)
				return collectOutcomes(t, s, Config{
					Mode:             ModeERPi,
					Workers:          workers,
					Seed:             7,
					Faults:           sched,
					PrefixCacheBytes: cacheBytes,
					Assertions:       []Assertion{municipalityInvariant{}},
				})
			}
			off, offRes := run(0)
			on, onRes := run(testBudget)
			if string(off) != string(on) {
				t.Fatal("prefix cache changed the outcome stream under faults")
			}
			assertResultsMatch(t, offRes, onRes)
			if len(offRes.Quarantined) != 1 || offRes.Quarantined[0].Index != 4 {
				t.Fatalf("pin is vacuous: want exactly interleaving 4 quarantined, got %v", offRes.Quarantined)
			}
		})
	}
}

// TestPrefixCacheRepruningParity: ConstraintPoll re-pruning must flush
// every worker's cache (via the generation stamped on pulled items),
// without changing any result.
func TestPrefixCacheRepruningParity(t *testing.T) {
	for _, workers := range []int{1, 8} {
		run := func(cacheBytes int64) *Result {
			s := townReportScenario(t)
			s.Pruning.TestedReplicas = nil
			delivered := false
			res, err := Run(s, Config{
				Mode:             ModeERPi,
				Workers:          workers,
				PollEvery:        5,
				PrefixCacheBytes: cacheBytes,
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
			return res
		}
		off := run(0)
		on := run(testBudget)
		assertResultsMatch(t, off, on)
		if !on.Exhausted {
			t.Fatalf("workers=%d: re-pruning parity is vacuous: not exhausted", workers)
		}
	}
}

// TestPrefixCacheTelemetry: a cache-enabled exhaustive run records hits,
// misses, skipped events, the hit-depth histogram, the snapshot-bytes
// gauge (within budget), and restore-prefix spans — and the
// executed/skipped split accounts for every event of every interleaving.
func TestPrefixCacheTelemetry(t *testing.T) {
	s := townReportScenario(t)
	reg := telemetry.New()
	res, err := Run(s, Config{
		Mode:             ModeDFS,
		Workers:          1,
		MaxInterleavings: 200,
		PrefixCacheBytes: testBudget,
		Telemetry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	hits := snap.Counters["runner.prefix_cache_hits"]
	misses := snap.Counters["runner.prefix_cache_misses"]
	if hits == 0 {
		t.Fatal("no prefix cache hits on a lexicographic DFS run")
	}
	if hits+misses != int64(res.Explored) {
		t.Fatalf("hits+misses = %d, want explored = %d", hits+misses, res.Explored)
	}
	executed := snap.Counters["runner.events_executed"]
	skipped := snap.Counters["runner.events_skipped"]
	if skipped == 0 {
		t.Fatal("no events skipped")
	}
	perIL := int64(s.Log.Len())
	if executed+skipped != int64(res.Explored)*perIL {
		t.Fatalf("executed+skipped = %d, want %d*%d", executed+skipped, res.Explored, perIL)
	}
	if executed >= int64(res.Explored)*perIL {
		t.Fatal("cache enabled but every event was executed")
	}
	bytes := snap.Gauges["runner.snapshot_bytes"]
	if bytes <= 0 || bytes > testBudget {
		t.Fatalf("runner.snapshot_bytes = %d, want within (0, %d]", bytes, testBudget)
	}
	depth := snap.Histograms["runner.prefix_hit_depth"]
	if depth.Count != hits {
		t.Fatalf("hit-depth histogram count = %d, want %d hits", depth.Count, hits)
	}
	if rp := snap.Histograms["stage.restore-prefix_ns"]; rp.Count != int64(res.Explored) {
		t.Fatalf("restore-prefix spans = %d, want %d", rp.Count, res.Explored)
	}
}

// TestPrefixCacheEviction: a budget that holds only part of a path makes
// the cache refuse snapshots while results stay identical to cache-off.
// PrefixCacheBytes bounds each worker's private cache and
// runner.snapshot_bytes sums over workers, so the gauge is bounded by
// budget × workers.
func TestPrefixCacheEviction(t *testing.T) {
	for _, workers := range []int{1, 2} {
		reg := telemetry.New()
		cfg := Config{
			Mode:             ModeDFS,
			Workers:          workers,
			MaxInterleavings: 200,
			PrefixCacheBytes: 512,
			Telemetry:        reg,
		}
		on, onRes := collectOutcomes(t, townReportScenario(t), cfg)
		snap := reg.Snapshot()
		if snap.Counters["runner.prefix_evictions"] == 0 {
			t.Fatalf("workers=%d: no evictions at a %d-byte budget", workers, cfg.PrefixCacheBytes)
		}
		if snap.Counters["runner.prefix_cache_hits"] == 0 {
			t.Fatalf("workers=%d: no hits at a %d-byte budget: it holds no part of a path", workers, cfg.PrefixCacheBytes)
		}
		limit := cfg.PrefixCacheBytes * int64(workers)
		if bytes := snap.Gauges["runner.snapshot_bytes"]; bytes < 0 || bytes > limit {
			t.Fatalf("workers=%d: runner.snapshot_bytes = %d, want within [0, %d]", workers, bytes, limit)
		}
		cfg.PrefixCacheBytes = 0
		cfg.Telemetry = nil
		off, offRes := collectOutcomes(t, townReportScenario(t), cfg)
		if string(on) != string(off) {
			t.Fatalf("workers=%d: evicting cache changed the outcome stream", workers)
		}
		assertResultsMatch(t, offRes, onRes)
	}
}

// TestPrefixCacheNonLexicographicModes: ModeRand and ModeFuzz yield in no
// lexicographic order, so an executor does leave and come back to
// prefixes, and the stack restores only what an interleaving shares with
// the one before it. The outcome stream must still be the cache-off one.
func TestPrefixCacheNonLexicographicModes(t *testing.T) {
	// ModeFuzz mutates inside the pruned space of 24 interleavings, so its
	// cap stays below that; small generations keep synthesis cheap.
	caps := map[Mode]int{ModeRand: 300, ModeFuzz: 20}
	for _, mode := range []Mode{ModeRand, ModeFuzz} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(t *testing.T) {
				run := func(cacheBytes int64) ([]byte, *Result, int64) {
					reg := telemetry.New()
					out, res := collectOutcomes(t, townReportScenario(t), Config{
						Mode:               mode,
						Workers:            workers,
						Seed:               5,
						MaxInterleavings:   caps[mode],
						FuzzGenerationSize: 4,
						PrefixCacheBytes:   cacheBytes,
						Assertions:         []Assertion{municipalityInvariant{}},
						Telemetry:          reg,
					})
					return out, res, reg.Snapshot().Counters["runner.prefix_cache_hits"]
				}
				off, offRes, _ := run(0)
				on, onRes, hits := run(testBudget)
				if string(off) != string(on) {
					t.Fatal("prefix cache changed the outcome stream")
				}
				assertResultsMatch(t, offRes, onRes)
				// Which worker runs what varies from run to run above one.
				if workers == 1 && hits == 0 {
					t.Fatal("no prefix restores: the check is vacuous")
				}
			})
		}
	}
}

// TestPrefixCacheOutOfOrderExecute: a standalone executor handed a DFS
// enumeration's second half before its first leaves prefixes it later
// comes back to. Every index must still get the cache-off outcome.
func TestPrefixCacheOutOfOrderExecute(t *testing.T) {
	s := townReportScenario(t)
	var all []*Outcome
	if _, err := Run(s, Config{
		Mode:             ModeDFS,
		Workers:          1,
		MaxInterleavings: 400,
		OnOutcome:        func(o *Outcome) { all = append(all, o) },
	}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	x, err := NewExecutor(s, Config{Mode: ModeDFS, PrefixCacheBytes: testBudget, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	half := len(all) / 2
	for _, want := range append(slices.Clone(all[half:]), all[:half]...) {
		got, _, err := x.Execute(context.Background(), want.Interleaving, want.Index)
		if err != nil {
			t.Fatalf("#%d: %v", want.Index, err)
		}
		if g, w := streamOf(t, []*Outcome{got}), streamOf(t, []*Outcome{want}); g != w {
			t.Fatalf("#%d: outcome with the cache\n%s\nwant the cache-off\n%s", want.Index, g, w)
		}
	}
	if reg.Snapshot().Counters["runner.prefix_cache_hits"] == 0 {
		t.Fatal("no prefix restores: the check is vacuous")
	}
}

// TestPrefixPivotSnapshotPolicy pins the explorer-informed snapshot
// placement. The periodic stride is pushed out of reach, so the only
// snapshots the cache can take sit at the divergence depth and at the
// explorer-announced pivot — the depth where the NEXT interleaving's
// lookup lands. The cache must still hit, and the outcome stream must be
// byte-identical to the cache-off engine.
func TestPrefixPivotSnapshotPolicy(t *testing.T) {
	run := func(cacheBytes int64) ([]byte, *Result, *telemetry.Registry) {
		reg := telemetry.New()
		var outcomes []*Outcome
		res, err := explore(context.Background(), townReportScenario(t), Config{
			Mode:             ModeDFS,
			Workers:          1,
			MaxInterleavings: 400,
			PrefixCacheBytes: cacheBytes,
			Telemetry:        reg,
			OnOutcome:        func(o *Outcome) { outcomes = append(outcomes, o) },
		}, defaultRunLen, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(streamOf(t, outcomes)), res, reg
	}
	off, offRes, _ := run(0)
	on, onRes, reg := run(testBudget)
	if string(off) != string(on) {
		t.Fatal("pivot-informed snapshots changed the outcome stream")
	}
	assertResultsMatch(t, offRes, onRes)
	snap := reg.Snapshot()
	if hits := snap.Counters["runner.prefix_cache_hits"]; hits == 0 {
		t.Fatal("no cache hits with the stride disabled: pivot snapshots are not landing")
	}
}

// TestWantSnapshotPolicy is the unit truth table for the snapshot
// placement predicate: periodic stride, divergence depth, and the
// explorer pivot each independently trigger a snapshot.
func TestWantSnapshotPolicy(t *testing.T) {
	c := newPrefixCache(testBudget, 4)
	cases := []struct {
		depth, divergence, pivot int
		want                     bool
	}{
		{4, -1, -1, true},  // stride
		{8, -1, -1, true},  // stride
		{5, 5, -1, true},   // divergence
		{5, -1, 5, true},   // pivot
		{5, -1, -1, false}, // none
		{3, 5, 7, false},   // none at this depth
		{7, 5, 7, true},    // pivot at depth 7
	}
	for _, tc := range cases {
		if got := c.wantSnapshot(tc.depth, tc.divergence, tc.pivot); got != tc.want {
			t.Errorf("wantSnapshot(%d, %d, %d) = %v, want %v",
				tc.depth, tc.divergence, tc.pivot, got, tc.want)
		}
	}
}

// slotHazardScenario is three replicas whose observations and captured
// payloads depend on A's early state: a crash of A at position 1 changes
// what every later SyncSend captures and what both reads return.
func slotHazardScenario(t *testing.T) Scenario {
	t.Helper()
	newCluster := func() (*replica.Cluster, error) {
		return replica.NewCluster(map[event.ReplicaID]replica.State{
			"A": newLWWSetState("A"),
			"B": newLWWSetState("B"),
			"C": newLWWSetState("C"),
		}), nil
	}
	cluster, err := newCluster()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(cluster)
	rec.Update("A", "set.add", "x")    // ev0
	rec.SyncPair("A", "B")             // ev1 send, ev2 exec
	rec.Update("B", "set.read")        // ev3
	rec.Update("B", "set.add", "y")    // ev4
	rec.SyncPair("B", "C")             // ev5 send, ev6 exec
	rec.Update("C", "set.read")        // ev7
	rec.Update("A", "set.remove", "x") // ev8
	log, err := rec.Log()
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{Name: "slothazard", Log: log, NewCluster: newCluster}
}

// TestPrefixCacheFaultArmedSlots: a fault-armed attempt replays from
// genesis and rewrites, under its faults, the per-event slots (payloads,
// observations, failed ops) that the cached snapshots of the path rely on.
// With both avoidance layers on and a partially armed schedule, every
// un-armed index must still produce the cache-off outcome, and the
// signature sets must agree: a later restore that trusted the slots the
// armed attempt wrote would report its observations and payloads. A run
// with scheduled faults builds no subsumption table, so the cache alone
// is at work and nothing is subsumed.
func TestPrefixCacheFaultArmedSlots(t *testing.T) {
	sched := func() *fault.Schedule {
		return &fault.Schedule{Seed: 5, Faults: []fault.Fault{
			// Interleaving 3 only: the A–B link is down throughout.
			{Kind: fault.Partition, A: "A", B: "B", Interleaving: 3, At: 0, Duration: 9},
			// Coin-flip crash of A before position 1, immediate restart.
			{Kind: fault.CrashReplica, Replica: "A", At: 1, Prob: 0.3},
		}}
	}
	run := func(on bool) (*Result, []*Outcome, telemetry.Snapshot) {
		reg := telemetry.New()
		cfg := Config{
			Mode:             ModeERPi,
			Workers:          1,
			MaxInterleavings: 300,
			Faults:           sched(),
			Telemetry:        reg,
		}
		if on {
			cfg.PrefixCacheBytes = testBudget
			cfg.SubsumptionTable = testSubTable
		}
		res, outcomes := exploreCollect(t, slotHazardScenario(t), cfg, defaultRunLen)
		return res, outcomes, reg.Snapshot()
	}
	offRes, off, _ := run(false)
	onRes, on, tel := run(true)

	want := make(map[int]string, len(off))
	for _, o := range off {
		want[o.Index] = streamOf(t, []*Outcome{o})
	}
	armed, compared := 0, 0
	for _, o := range on {
		if o.FaultArmed {
			armed++
			continue
		}
		compared++
		if got := streamOf(t, []*Outcome{o}); got != want[o.Index] {
			t.Fatalf("un-armed index %d: cache-on outcome\n%s\ncache-off\n%s", o.Index, got, want[o.Index])
		}
	}
	if sigSetOf(t, []byte(streamOf(t, on))) != sigSetOf(t, []byte(streamOf(t, off))) {
		t.Fatal("the avoidance layers changed the signature set under a partially armed schedule")
	}
	// Not vacuous: armed and un-armed indices mix, and restores happen
	// after armed attempts.
	if armed == 0 || compared == 0 || tel.Counters["runner.prefix_cache_hits"] == 0 {
		t.Fatalf("vacuous: %d armed, %d compared, %d prefix hits",
			armed, compared, tel.Counters["runner.prefix_cache_hits"])
	}
	if onRes.Subsumed != 0 {
		t.Fatalf("%d interleavings subsumed with faults scheduled", onRes.Subsumed)
	}
	if offRes.Explored != onRes.Explored {
		t.Fatalf("explored %d cache-off, %d cache-on", offRes.Explored, onRes.Explored)
	}
}
