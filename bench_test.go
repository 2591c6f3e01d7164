// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (§6), plus micro-benchmarks of ER-π's core machinery. Run
// with:
//
//	go test -bench=. -benchmem
//
// The table/figure benchmarks execute a full (or representatively scoped)
// regeneration per iteration; cmd/erpi-bench prints the actual artifacts.
package erpi_test

import (
	"fmt"
	"testing"

	"github.com/er-pi/erpi/internal/bench"
	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/runner"
)

// townReportConfig reproduces the motivating example's pruning setup
// (§2.3/§3.1: 7 events, 5040 → 19 interleavings).
func townReportLog(b *testing.B) (*event.Log, prune.Config) {
	b.Helper()
	log, err := event.NewLog([]event.Event{
		{Kind: event.Update, Replica: "A", Op: "set.add", Args: []string{"otb"}},
		{Kind: event.SyncExec, Replica: "B", From: "A", To: "B"},
		{Kind: event.Update, Replica: "B", Op: "set.add", Args: []string{"ph"}},
		{Kind: event.SyncExec, Replica: "A", From: "B", To: "A"},
		{Kind: event.Update, Replica: "B", Op: "set.remove", Args: []string{"otb"}},
		{Kind: event.SyncExec, Replica: "A", From: "B", To: "A"},
		{Kind: event.SyncSend, Replica: "A", From: "A", To: "M", Op: "transmit"},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := prune.Config{
		Grouping:       prune.GroupSpec{Extra: [][]event.ID{{0, 1}, {2, 3}, {4, 5}}},
		TestedReplicas: []event.ReplicaID{"M"},
	}
	return log, cfg
}

// BenchmarkMotivatingExample generates and prunes the §2.3 space
// (5040 raw → 19 interleavings) per iteration.
func BenchmarkMotivatingExample(b *testing.B) {
	log, cfg := townReportLog(b)
	for i := 0; i < b.N; i++ {
		ex, err := prune.NewExplorer(log, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if got := len(interleave.Collect(ex, 0)); got != 19 {
			b.Fatalf("surviving = %d, want 19", got)
		}
	}
}

// BenchmarkTable1Reproduction reproduces every Table-1 bug under ER-π per
// iteration (the RQ1 experiment).
func BenchmarkTable1Reproduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Reproduced {
				b.Fatalf("%s not reproduced", r.Name)
			}
		}
	}
}

// BenchmarkTable2Misconceptions detects every Table-2 misconception per
// iteration (the RQ2 experiment).
func BenchmarkTable2Misconceptions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := bench.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if !c.Detected {
				b.Fatalf("%s#%d not detected", c.Subject, c.Misconception)
			}
		}
	}
}

// BenchmarkFig8aInterleavings measures interleavings-to-reproduce for one
// representative bug across the three modes (the full 12-bug sweep runs in
// cmd/erpi-bench -fig8).
func BenchmarkFig8aInterleavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig8(bench.Cap, 1, "OrbitDB-3"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8bTime measures time-to-reproduce (same harness; Figure 8b
// is the duration projection of the same runs).
func BenchmarkFig8bTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig8(bench.Cap, 1, "Roshi-1")
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Duration <= 0 {
				b.Fatal("missing duration")
			}
		}
	}
}

// BenchmarkFig9Ablation measures the per-algorithm pruning contributions.
func BenchmarkFig9Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig9(4000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10SucceedOrCrash runs one succeed-or-crash round per
// iteration (ER-π succeeds, DFS and Rand exhaust the fact budget).
func BenchmarkFig10SucceedOrCrash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig10(1, bench.DefaultFig10Budget)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Mode == runner.ModeERPi && !r.Succeed {
				b.Fatal("ER-π must succeed")
			}
		}
	}
}

// --- Core machinery micro-benchmarks ---

// BenchmarkInterleavingGeneration measures the raw DFS permutation
// iterator (per interleaving).
func BenchmarkInterleavingGeneration(b *testing.B) {
	log, _ := townReportLog(b)
	space := interleave.NewSpace(log)
	dfs := interleave.NewDFS(space)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := dfs.Next(); !ok {
			dfs = interleave.NewDFS(space)
		}
	}
}

// BenchmarkPrunedGeneration measures the pruned explorer (grouping +
// replica-specific filters) per yielded interleaving.
func BenchmarkPrunedGeneration(b *testing.B) {
	log, cfg := townReportLog(b)
	ex, err := prune.NewExplorer(log, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ex.Next(); !ok {
			ex, err = prune.NewExplorer(log, cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReplayInterleaving measures executing one full interleaving
// against live replica states (checkpoint, events, fingerprints).
func BenchmarkReplayInterleaving(b *testing.B) {
	bug, _ := bugs.ByName("Roshi-1")
	scenario, err := bug.Build()
	if err != nil {
		b.Fatal(err)
	}
	il := interleave.Interleaving(bug.Trigger)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.ExecuteOnce(scenario, il); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelExploration measures the sharded exploration engine's
// throughput as the worker pool widens: the same DFS slice of Roshi-3's
// 21-event space is replayed at Workers 1/2/4/8. Each sub-benchmark
// reports interleavings/s, and the widened runs additionally report their
// speedup over the sequential baseline (meaningful only on a multi-core
// runner; on one core the pool degenerates to coordination overhead).
func BenchmarkParallelExploration(b *testing.B) {
	bug, ok := bugs.ByName("Roshi-3")
	if !ok {
		b.Fatal("Roshi-3 missing from the corpus")
	}
	scenario, err := bug.Build()
	if err != nil {
		b.Fatal(err)
	}
	const slice = 192 // DFS interleavings replayed per exploration
	throughput := map[int]float64{}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(scenario, runner.Config{
					Mode:             runner.ModeDFS,
					Workers:          w,
					MaxInterleavings: slice,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Explored != slice {
					b.Fatalf("explored %d, want %d", res.Explored, slice)
				}
			}
			ips := float64(b.N*slice) / b.Elapsed().Seconds()
			b.ReportMetric(ips, "interleavings/s")
			throughput[w] = ips
			if base := throughput[1]; w > 1 && base > 0 {
				b.ReportMetric(ips/base, "speedup-vs-seq")
			}
		})
	}
}

// BenchmarkPruningCount measures the exact surviving-interleaving counter
// on the motivating example's 24-permutation grouped space.
func BenchmarkPruningCount(b *testing.B) {
	log, cfg := townReportLog(b)
	for i := 0; i < b.N; i++ {
		res, err := prune.CountPruned(log, cfg, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Surviving.Int64() != 19 {
			b.Fatal("count drift")
		}
	}
}
