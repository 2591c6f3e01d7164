package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/subjects/roshi"
	"github.com/er-pi/erpi/internal/telemetry"
)

// TestTelemetryDeterminismPin: telemetry is strictly observational. A run
// with a registry attached produces byte-identical outcome streams to one
// without, and the Workers 1 vs 8 determinism pin holds with telemetry on.
func TestTelemetryDeterminismPin(t *testing.T) {
	base := Config{Mode: ModeERPi, Assertions: []Assertion{municipalityInvariant{}}}

	plain := base
	plain.Workers = 1
	rawPlain, resPlain := collectOutcomes(t, townReportScenario(t), plain)

	one := base
	one.Workers = 1
	one.Telemetry = telemetry.New()
	rawOne, resOne := collectOutcomes(t, townReportScenario(t), one)

	eight := base
	eight.Workers = 8
	eight.Telemetry = telemetry.New()
	rawEight, resEight := collectOutcomes(t, townReportScenario(t), eight)

	if !bytes.Equal(rawPlain, rawOne) {
		t.Fatal("attaching a telemetry registry changed the outcome stream")
	}
	if !bytes.Equal(rawOne, rawEight) {
		t.Fatal("Workers 1 vs 8 outcome streams diverge with telemetry on")
	}
	assertResultsMatch(t, resPlain, resOne)
	assertResultsMatch(t, resOne, resEight)

	for name, res := range map[string]*Result{"sequential": resOne, "pool": resEight} {
		var reg *telemetry.Registry
		if name == "sequential" {
			reg = one.Telemetry
		} else {
			reg = eight.Telemetry
		}
		snap := reg.Snapshot()
		if got := snap.Counters["runner.explored"]; got != int64(res.Explored) {
			t.Fatalf("%s: runner.explored = %d, want %d", name, got, res.Explored)
		}
		if got := snap.Counters["runner.violations"]; got != int64(len(res.Violations)) {
			t.Fatalf("%s: runner.violations = %d, want %d", name, got, len(res.Violations))
		}
		if hs := snap.Histograms["stage.execute_ns"]; hs.Count != int64(res.Explored) {
			t.Fatalf("%s: execute spans = %d, want %d", name, hs.Count, res.Explored)
		}
	}
}

// TestTelemetryNilPathZeroAllocs: with telemetry off, every instrumentation
// call site in the hot loop is a zero-allocation no-op.
func TestTelemetryNilPathZeroAllocs(t *testing.T) {
	tel := newRunTelemetry(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		asked := tel.now()
		gen := tel.span(telemetry.StageGenerate, 1, telemetry.CoordinatorWorker)
		gen.End()
		tel.explored.Inc()
		tel.poolRuns.Inc()
		tel.observeSince(telemetry.StageDispatch, 1, 0, asked)
		tel.poolParked.Add(1)
		tel.poolParked.Add(-1)
		tel.progress.SetWorker(0, 1)
		sp := tel.span(telemetry.StageExecute, 1, 0)
		sp.End()
		tel.progress.SetWorker(0, 0)
		tel.violations.Add(0)
	})
	if allocs != 0 {
		t.Fatalf("nil-telemetry hot path allocates %v per interleaving, want 0", allocs)
	}
}

// BenchmarkTelemetryOverhead measures the per-interleaving cost of the
// instrumentation call sites with telemetry off (nil) and on (active).
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, tel *runTelemetry) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gen := tel.span(telemetry.StageGenerate, i, telemetry.CoordinatorWorker)
			gen.End()
			tel.explored.Inc()
			tel.progress.SetWorker(0, i)
			sp := tel.span(telemetry.StageExecute, i, 0)
			sp.End()
			tel.progress.SetWorker(0, 0)
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, newRunTelemetry(nil)) })
	b.Run("active", func(b *testing.B) { run(b, newRunTelemetry(telemetry.New())) })
}

// TestJournalFsyncTelemetry: a journaled run records fsync batches, the
// keys they covered, and journal-fsync latency spans.
func TestJournalFsyncTelemetry(t *testing.T) {
	dir, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	reg := telemetry.New()
	res, err := Run(townReportScenario(t), Config{Mode: ModeERPi, Journal: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["journal.fsync_batches"]; got < 1 {
		t.Fatalf("journal.fsync_batches = %d, want >= 1", got)
	}
	if got := snap.Counters["journal.fsync_keys"]; got != int64(res.Explored) {
		t.Fatalf("journal.fsync_keys = %d, want %d", got, res.Explored)
	}
	if hs := snap.Histograms["stage.journal-fsync_ns"]; hs.Count < 1 {
		t.Fatal("no journal-fsync spans recorded")
	}
}

// TestTraceExportPool: a pool run exports a Chrome trace where execute
// spans land on worker lanes (tid >= 1) and each ConstraintPoll barrier
// shows up as a quiesce event on the coordinator lane.
func TestTraceExportPool(t *testing.T) {
	reg := telemetry.New()
	polls := 0
	res, err := Run(townReportScenario(t), Config{
		Mode:      ModeERPi,
		Workers:   4,
		PollEvery: 5,
		Telemetry: reg,
		ConstraintPoll: func() (prune.Config, bool, error) {
			polls++
			return prune.Config{}, false, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatalf("town report must exhaust, got %+v", res)
	}

	var buf bytes.Buffer
	if err := reg.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	executes, quiesces := 0, 0
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "execute":
			executes++
			if ev.Tid < 1 {
				t.Fatalf("execute span on tid %d, want a worker lane (>= 1)", ev.Tid)
			}
			if _, ok := ev.Args["interleaving"]; !ok {
				t.Fatal("execute span missing interleaving arg")
			}
		case "quiesce":
			quiesces++
			if ev.Tid != 0 {
				t.Fatalf("quiesce span on tid %d, want the coordinator lane (0)", ev.Tid)
			}
		}
	}
	if executes != res.Explored {
		t.Fatalf("trace has %d execute spans, want %d", executes, res.Explored)
	}
	if polls == 0 || quiesces != polls {
		t.Fatalf("trace has %d quiesce spans, want one per poll (%d)", quiesces, polls)
	}
}

// roshiScenario records two Roshi inserts and a sync each way; ModeDFS
// replays all 24 orders of its four events.
func roshiScenario(t *testing.T) Scenario {
	t.Helper()
	newCluster := func() (*replica.Cluster, error) {
		return replica.NewCluster(map[event.ReplicaID]replica.State{
			"A": roshi.New(roshi.Flags{}),
			"B": roshi.New(roshi.Flags{}),
		}), nil
	}
	cluster, err := newCluster()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(cluster)
	rec.Update("A", "insert", "k", "x", "1") // ev0
	rec.Sync("A", "B")                       // ev1
	rec.Update("B", "insert", "k", "y", "2") // ev2
	rec.Sync("B", "A")                       // ev3
	log, err := rec.Log()
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{Name: "roshi", Log: log, NewCluster: newCluster}
}

// TestTelemetrySyncBytesAreOrderDependent: a sync ships whatever state
// exists when it runs, so the recording order (each sync after the insert
// it carries) delivers more runner.sync_bytes than running the syncs
// first — the order-dependent resource cost of the paper's §8 profiling
// extension.
func TestTelemetrySyncBytesAreOrderDependent(t *testing.T) {
	s := roshiScenario(t)
	syncBytes := func(il interleave.Interleaving) int64 {
		t.Helper()
		reg := telemetry.New()
		x, err := NewExecutor(s, Config{Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := x.Execute(context.Background(), il, 1); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters["runner.sync_bytes"]
	}
	lean := syncBytes(interleave.Interleaving{1, 3, 0, 2})
	heavy := syncBytes(interleave.Interleaving{0, 1, 2, 3})
	if heavy <= lean {
		t.Fatalf("expected order-dependent sync cost: recording order %d B, syncs first %d B", heavy, lean)
	}
}

// TestTelemetryResourceCountersWorkerParity: runner.op.* and
// runner.sync_bytes total the same at Workers 1 and 8. Each executor
// resolves its own op counters, and the pool replays the same 24
// interleavings as one worker does.
func TestTelemetryResourceCountersWorkerParity(t *testing.T) {
	s := roshiScenario(t)
	counters := func(workers int) map[string]int64 {
		t.Helper()
		reg := telemetry.New()
		res, err := Run(s, Config{Mode: ModeDFS, Workers: workers, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exhausted || res.Explored != 24 {
			t.Fatalf("workers=%d explored %d, want all 24", workers, res.Explored)
		}
		out := make(map[string]int64)
		for name, v := range reg.Snapshot().Counters {
			if strings.HasPrefix(name, "runner.op.") || name == "runner.sync_bytes" {
				out[name] = v
			}
		}
		return out
	}
	one, eight := counters(1), counters(8)
	// Every interleaving applies both inserts; the recording is not counted.
	if got := one["runner.op.insert"]; got != 2*24 {
		t.Fatalf("runner.op.insert = %d, want 48", got)
	}
	if one["runner.sync_bytes"] == 0 {
		t.Fatal("runner.sync_bytes not counted")
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("resource counters differ: workers=1 %v, workers=8 %v", one, eight)
	}
}
