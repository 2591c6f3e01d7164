package runner

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/telemetry"
)

// testBudget is a prefix-cache byte budget comfortably above what the
// townreport scenario's snapshots need.
const testBudget = 1 << 20

// TestPrefixCacheTrie exercises the snapshot trie directly: deepest-match
// lookup, LRU eviction under the byte budget, branch pruning, and
// invalidation.
func TestPrefixCacheTrie(t *testing.T) {
	il := func(ids ...int) interleave.Interleaving {
		out := make(interleave.Interleaving, len(ids))
		for i, id := range ids {
			out[i] = event.ID(id)
		}
		return out
	}
	snap := func(size int64) *prefixSnapshot { return &prefixSnapshot{size: size} }

	c := newPrefixCache(100, 4)
	if got, depth := c.lookup(il(1, 2, 3, 4)); got != nil || depth != 0 {
		t.Fatalf("empty cache lookup = (%v, %d), want miss", got, depth)
	}
	s2 := snap(40)
	if delta, stateDelta, evicted := c.insert(il(1, 2, 3, 4), 2, s2); delta != 40 || stateDelta != 0 || evicted != 0 {
		t.Fatalf("insert depth 2: delta=%d stateDelta=%d evicted=%d", delta, stateDelta, evicted)
	}
	s3 := snap(40)
	c.insert(il(1, 2, 3, 4), 3, s3)

	// Deepest matching strict prefix wins.
	if got, depth := c.lookup(il(1, 2, 3, 4)); got != s3 || depth != 3 {
		t.Fatalf("lookup = (%p, %d), want (s3, 3)", got, depth)
	}
	// A full-length match must not be returned for the interleaving itself.
	if got, depth := c.lookup(il(1, 2, 3)); got != s2 || depth != 2 {
		t.Fatalf("lookup(len 3) = (%p, %d), want (s2, 2)", got, depth)
	}
	// Diverging interleaving only shares the 2-prefix.
	if got, depth := c.lookup(il(1, 2, 9, 3)); got != s2 || depth != 2 {
		t.Fatalf("diverging lookup = (%p, %d), want (s2, 2)", got, depth)
	}

	// s2 was most recently used (just looked up); inserting 40 more bytes
	// must evict the LRU snapshot, which is s3.
	s5 := snap(40)
	if delta, _, evicted := c.insert(il(9, 8, 7, 6, 5, 4), 5, s5); delta != 0 || evicted != 1 {
		t.Fatalf("evicting insert: delta=%d evicted=%d, want 0, 1", delta, evicted)
	}
	if got, depth := c.lookup(il(1, 2, 3, 4)); got != s2 || depth != 2 {
		t.Fatalf("post-eviction lookup = (%p, %d), want (s2, 2)", got, depth)
	}
	if c.cached(il(9, 8, 7, 6, 5, 4), 5) != s5 {
		t.Fatal("inserted prefix not reported cached")
	}
	if c.cached(il(1, 2, 3, 4), 3) != nil {
		t.Fatal("evicted prefix still reported cached")
	}

	// A snapshot exceeding the whole budget is rejected.
	if delta, _, _ := c.insert(il(4, 4, 4), 2, snap(1000)); delta != 0 {
		t.Fatalf("oversized insert accepted: delta=%d", delta)
	}

	if freed, stateFreed := c.invalidate(); freed != 80 || stateFreed != 0 {
		t.Fatalf("invalidate freed %d/%d, want 80/0", freed, stateFreed)
	}
	if got, _ := c.lookup(il(1, 2, 3, 4)); got != nil {
		t.Fatal("lookup after invalidate still hits")
	}
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
// on clean runs sit in the trie while crashes replay from genesis.
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
					RetryBackoff:     100 * time.Microsecond,
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

// TestPrefixCacheEviction: a budget far below the working set forces LRU
// evictions while results stay identical to cache-off. PrefixCacheBytes
// bounds each worker's private cache and runner.snapshot_bytes sums over
// workers, so the gauge is bounded by budget × workers.
func TestPrefixCacheEviction(t *testing.T) {
	for _, workers := range []int{1, 2} {
		reg := telemetry.New()
		cfg := Config{
			Mode:             ModeDFS,
			Workers:          workers,
			MaxInterleavings: 200,
			PrefixCacheBytes: 2 << 10,
			Telemetry:        reg,
		}
		on, onRes := collectOutcomes(t, townReportScenario(t), cfg)
		snap := reg.Snapshot()
		if snap.Counters["runner.prefix_evictions"] == 0 {
			t.Fatalf("workers=%d: no evictions at a %d-byte budget", workers, cfg.PrefixCacheBytes)
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
