package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestCountersGaugesHistograms(t *testing.T) {
	r := New()
	c := r.Counter("explored")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("explored") != c {
		t.Fatal("re-registration must return the same handle")
	}
	g := r.Gauge("workers")
	g.Set(3)
	g.Add(-1)
	g.Max(7)
	g.Max(2) // lower: no effect
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	h := r.Histogram("lat_ns")
	h.Observe(500)                     // bucket 0 (<= 1024)
	h.Observe(2000)                    // bucket 1
	h.ObserveDuration(5 * time.Second) // overflow
	s := r.Snapshot()
	hs := s.Histograms["lat_ns"]
	if hs.Count != 3 || hs.Max != int64(5*time.Second) {
		t.Fatalf("hist snapshot = %+v", hs)
	}
	if hs.Counts[0] != 1 || hs.Counts[1] != 1 || hs.Counts[len(hs.Counts)-1] != 1 {
		t.Fatalf("bucket placement wrong: %v", hs.Counts)
	}
	if want := float64(500+2000+int64(5*time.Second)) / 3; hs.Mean() != want {
		t.Fatalf("mean = %f, want %f", hs.Mean(), want)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.Histogram("z").Observe(3)
	r.Progress().BeginRun(10, 2, 0)
	r.Progress().SetDedupSaturated()
	sp := r.StartSpan(StageExecute, 1, 0)
	sp.End()
	r.ObserveSpan(StageExecute, 1, 0, time.Now(), time.Millisecond)
	if spans := r.Tracer().Spans(); spans != nil {
		t.Fatalf("nil tracer returned spans: %v", spans)
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot: %+v", s)
	}
	if err := r.WriteTrace(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestNilPathZeroAllocations(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.StartSpan(StageExecute, 7, 3)
		r.Counter("c").Inc()
		r.Progress().SetWorker(3, 7)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-registry path allocates %v per run, want 0", allocs)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter("n").Add(2)
	b.Counter("n").Add(3)
	b.Counter("only_b").Add(1)
	a.Gauge("g").Set(5)
	b.Gauge("g").Set(9)
	a.Histogram("h").Observe(100)
	b.Histogram("h").Observe(5000)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Counters["n"] != 5 || sa.Counters["only_b"] != 1 {
		t.Fatalf("merged counters: %v", sa.Counters)
	}
	if sa.Gauges["g"] != 9 {
		t.Fatalf("merged gauge = %d, want max 9", sa.Gauges["g"])
	}
	h := sa.Histograms["h"]
	if h.Count != 2 || h.Sum != 5100 || h.Max != 5000 {
		t.Fatalf("merged hist: %+v", h)
	}
	if h.Counts[0] != 1 || h.Counts[2] != 1 {
		t.Fatalf("merged buckets: %v", h.Counts)
	}
}

func TestTracerRingBounds(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 10; i++ {
		tr.record(Span{Stage: StageExecute, Index: int32(i)})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := int32(7 + i); sp.Index != want {
			t.Fatalf("span %d has index %d, want %d (oldest-first tail)", i, sp.Index, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestStageSpansFeedHistograms(t *testing.T) {
	r := New()
	sp := r.StartSpan(StageCheckpointReset, 3, 1)
	sp.End()
	hs := r.Snapshot().Histograms["stage.checkpoint-reset_ns"]
	if hs.Count != 1 {
		t.Fatalf("stage histogram count = %d, want 1", hs.Count)
	}
	spans := r.Tracer().Spans()
	if len(spans) != 1 || spans[0].Stage != StageCheckpointReset || spans[0].Index != 3 || spans[0].Worker != 1 {
		t.Fatalf("recorded span: %+v", spans)
	}
}

func TestWriteTraceChromeFormat(t *testing.T) {
	r := New()
	r.StartSpan(StageExecute, 1, 0).End()
	r.StartSpan(StageDispatch, 2, CoordinatorWorker).End()
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var names []string
	var threadNames []string
	for _, ev := range file.TraceEvents {
		switch ev["ph"] {
		case "X":
			names = append(names, ev["name"].(string))
		case "M":
			args := ev["args"].(map[string]any)
			threadNames = append(threadNames, args["name"].(string))
		}
	}
	if len(names) != 2 || names[0] != "execute" || names[1] != "dispatch" {
		t.Fatalf("trace events: %v", names)
	}
	joined := strings.Join(threadNames, ",")
	if !strings.Contains(joined, "coordinator") || !strings.Contains(joined, "worker 0") {
		t.Fatalf("thread names: %v", threadNames)
	}
}

// TestProgressSnapshot: /progress reads the registry's counters as their
// growth since BeginRun, so a registry that observes several runs reports
// each one's own counts.
func TestProgressSnapshot(t *testing.T) {
	r := New()
	explored, violations := r.Counter("runner.explored"), r.Counter("runner.violations")
	fuzzGens := r.Counter("fuzz.generations")
	corpus, novelty := r.Gauge("fuzz.corpus_size"), r.Gauge("fuzz.novelty_rate_permille")
	p := r.Progress()
	if s := p.Snapshot(); s.Running || s.Explored != 0 {
		t.Fatalf("pre-run snapshot: %+v", s)
	}
	p.BeginRun(100, 2, 5)
	explored.Add(10)
	r.Counter("runner.quarantined").Inc()
	violations.Add(2)
	r.Counter("live.events").Add(6)
	r.Counter("live.handoffs").Add(3)
	r.Counter("runner.pool_runs").Add(4)
	r.Gauge("runner.pool_parked").Add(1)
	p.SetWorker(0, 11)
	s := p.Snapshot()
	if !s.Running || s.Explored != 10 || s.Total != 100 || s.Resumed != 5 || s.Quarantined != 1 || s.Violations != 2 {
		t.Fatalf("live snapshot: %+v", s)
	}
	if s.LiveEvents != 6 || s.LiveHandoffs != 3 || s.PoolRuns != 4 || s.PoolParked != 1 {
		t.Fatalf("live and pool fields: %+v", s)
	}
	if s.PerSecond <= 0 || s.ETASeconds <= 0 {
		t.Fatalf("a running run with budget left has a rate and an ETA: %+v", s)
	}
	if len(s.Workers) != 2 || s.Workers[0].State != "executing" || s.Workers[1].State != "idle" {
		t.Fatalf("worker states: %+v", s.Workers)
	}
	if s.FuzzCorpusSize != 0 {
		t.Fatalf("corpus reported before a generation completed: %+v", s)
	}
	fuzzGens.Add(3)
	corpus.Set(17)
	novelty.Set(250)
	s = p.Snapshot()
	if s.FuzzGenerations != 3 || s.FuzzCorpusSize != 17 || s.FuzzNoveltyRate != 0.25 {
		t.Fatalf("fuzz snapshot: %+v", s)
	}
	p.SetWorker(0, 0)
	p.EndRun()
	s = p.Snapshot()
	if s.Running || s.ETASeconds != 0 {
		t.Fatalf("post-run snapshot: %+v", s)
	}
	if s.FuzzGenerations != 3 || s.Explored != 10 {
		t.Fatalf("counts must survive EndRun: %+v", s)
	}
	p.BeginRun(10, 1, 0)
	s = p.Snapshot()
	if s.Explored != 0 || s.Violations != 0 || s.Resumed != 0 {
		t.Fatalf("BeginRun must reset the run's counts: %+v", s)
	}
	if s.FuzzGenerations != 0 || s.FuzzCorpusSize != 0 || s.FuzzNoveltyRate != 0 {
		t.Fatalf("BeginRun must reset fuzz counters: %+v", s)
	}
	explored.Add(4)
	if s := p.Snapshot(); s.Explored != 4 || r.Snapshot().Counters["runner.explored"] != 14 {
		t.Fatalf("second run explored = %d, want 4 of the counter's 14", s.Explored)
	}
}

func TestStatusServerEndpoints(t *testing.T) {
	r := New()
	r.Progress().BeginRun(50, 1, 0)
	r.Counter("runner.explored").Add(42)
	r.StartSpan(StageExecute, 1, 0).End()
	srv, err := NewStatusServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	var prog ProgressSnapshot
	if err := json.Unmarshal([]byte(get("/progress")), &prog); err != nil {
		t.Fatalf("progress JSON: %v", err)
	}
	if prog.Explored != 42 || prog.Total != 50 {
		t.Fatalf("progress = %+v", prog)
	}
	if !strings.Contains(get("/metrics"), "runner.explored") {
		t.Fatal("metrics endpoint missing counter")
	}
	if !strings.Contains(get("/trace"), `"execute"`) {
		t.Fatal("trace endpoint missing execute span")
	}
	if !strings.Contains(get("/debug/vars"), "erpi") {
		t.Fatal("expvar endpoint missing erpi registry")
	}
	if !strings.Contains(get("/debug/pprof/cmdline"), "") {
		t.Fatal("pprof unreachable")
	}
}
