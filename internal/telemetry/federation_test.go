package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// workerSnapshot builds a cumulative report for one fake worker that has
// executed that many interleavings, with one span in its feed.
func workerSnapshot(name string, executed int64) WorkerReport {
	r := New()
	r.Counter("runner.events_executed").Add(executed)
	for i := int64(0); i < executed; i++ {
		r.Histogram("stage.execute_ns").Observe(1)
	}
	r.StartSpan(StageDispatch, 1, 0).End()
	return WorkerReport{
		Worker:         name,
		EpochUnixNanos: r.Tracer().Epoch().UnixNano(),
		Metrics:        r.Snapshot(),
		Spans:          r.Tracer().Spans(),
	}
}

func TestFederationCountersSumAcrossWorkers(t *testing.T) {
	local := New()
	local.Counter("runner.events_executed").Add(5)
	f := NewFederation(local)
	f.Report(workerSnapshot("w1", 10))
	f.Report(workerSnapshot("w2", 20))
	if got := f.Snapshot().Counters["runner.events_executed"]; got != 35 {
		t.Fatalf("fleet counter = %d, want 35 (5 local + 10 + 20)", got)
	}
	if got := len(f.Progress().Workers); got != 2 {
		t.Fatalf("workers = %d, want 2", got)
	}
}

func TestFederationReportsAreIdempotent(t *testing.T) {
	f := NewFederation(nil)
	rep := workerSnapshot("w1", 10)
	// A reconnecting worker re-sends its cumulative snapshot; folding it
	// twice must not double-count.
	f.Report(rep)
	f.Report(rep)
	if got := f.Snapshot().Counters["runner.events_executed"]; got != 10 {
		t.Fatalf("fleet counter = %d after re-sent report, want 10", got)
	}
	// A later snapshot replaces, never adds.
	f.Report(workerSnapshot("w1", 15))
	if got := f.Snapshot().Counters["runner.events_executed"]; got != 15 {
		t.Fatalf("fleet counter = %d after newer report, want 15", got)
	}
}

// TestFederationProgressBreakdown: each worker row is that worker's
// cumulative execution count over the time between its first and latest
// report; the fleet's explored, violations and quarantines are the local
// registry's, which the coordinator's ledger counts.
func TestFederationProgressBreakdown(t *testing.T) {
	local := New()
	local.Counter("runner.explored").Add(12)
	local.Counter("runner.violations").Add(4)
	local.Counter("runner.quarantined").Add(1)
	f := NewFederation(local)
	f.SetLeaseSource(func() map[string]int { return map[string]int{"w1": 3} })
	f.Report(workerSnapshot("w1", 0))
	f.Report(workerSnapshot("w2", 20))
	if p := f.Progress(); p.Workers[0].PerSecond != 0 || p.Workers[1].PerSecond != 0 {
		t.Fatalf("a worker with one report has no rate yet: %+v", p.Workers)
	}
	f.feeds["w1"].firstSeen = f.feeds["w1"].firstSeen.Add(-2 * time.Second)
	f.Report(workerSnapshot("w1", 10))
	p := f.Progress()
	if p.Explored != 12 {
		t.Fatalf("fleet explored = %d, want the ledger's 12, not the rows' 30", p.Explored)
	}
	if r := p.Workers[0].PerSecond; r < 4 || r > 5 {
		t.Fatalf("w1 rate = %f/s, want 10 over ~2s", r)
	}
	if p.PerSecond != p.Workers[0].PerSecond {
		t.Fatalf("fleet rate %f must sum the rows %+v", p.PerSecond, p.Workers)
	}
	snap := f.Snapshot()
	if p.Violations != snap.Counters["runner.violations"] || p.Violations != 4 || p.Quarantined != snap.Counters["runner.quarantined"] || p.Quarantined != 1 {
		t.Fatalf("fleet violations/quarantined = %d/%d, want the merged snapshot's 4/1", p.Violations, p.Quarantined)
	}
	if len(p.Workers) != 2 || p.Workers[0].Worker != "w1" || p.Workers[1].Worker != "w2" {
		t.Fatalf("worker rows: %+v", p.Workers)
	}
	if p.Workers[0].Leases != 3 || p.Workers[1].Leases != 0 {
		t.Fatalf("lease breakdown: %+v", p.Workers)
	}
	if p.Workers[0].Executed != 10 || p.Workers[1].Executed != 20 {
		t.Fatalf("per-worker executed: %+v", p.Workers)
	}
	if p.Workers[0].SpansRetained != 2 { // one span per w1 report
		t.Fatalf("span accounting: %+v", p.Workers[0])
	}
}

func TestFederationSpanFeedBounded(t *testing.T) {
	f := NewFederation(nil)
	f.spanCap = 4
	for i := 0; i < 3; i++ {
		rep := workerSnapshot("w1", 1)
		rep.Spans = make([]Span, 3)
		f.Report(rep)
	}
	p := f.Progress()
	if p.Workers[0].SpansRetained != 4 || p.Workers[0].SpansDropped != 5 {
		t.Fatalf("span feed bound: %+v", p.Workers[0])
	}
}

func TestFederationTraceHasOneLanePerWorker(t *testing.T) {
	local := New()
	local.StartSpan(StageDispatch, 1, CoordinatorWorker).End()
	f := NewFederation(local)
	f.Report(workerSnapshot("w1", 1))
	f.Report(workerSnapshot("w2", 2))
	var buf bytes.Buffer
	if err := f.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	var processNames []string
	for _, ev := range file.TraceEvents {
		if pid, ok := ev["pid"].(float64); ok {
			pids[pid] = true
		}
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			args := ev["args"].(map[string]any)
			processNames = append(processNames, args["name"].(string))
		}
	}
	if len(pids) != 3 {
		t.Fatalf("merged trace has %d process lanes, want 3 (coordinator + 2 workers): %v", len(pids), pids)
	}
	joined := strings.Join(processNames, ",")
	for _, want := range []string{"coordinator", "worker w1", "worker w2"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("process lanes %q missing %q", joined, want)
		}
	}
	// Every event timestamp must be non-negative after epoch re-basing.
	for _, ev := range file.TraceEvents {
		if ts, ok := ev["ts"].(float64); ok && ts < 0 {
			t.Fatalf("negative timestamp after re-basing: %+v", ev)
		}
	}
}
