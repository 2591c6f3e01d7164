package erpi_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	erpi "github.com/er-pi/erpi"
	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// TestStatusServer: a session started with WithStatusServer serves the
// live observability surface. The progress endpoint is probed mid-run
// (from an assertion, which executes while exploration is in flight) and
// again after End, alongside /metrics, /debug/vars, and pprof.
func TestStatusServer(t *testing.T) {
	sess, err := erpi.NewSession(newTwoReplicaCluster,
		erpi.WithStatusServer("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	srv := sess.Status()
	if srv == nil {
		t.Fatal("Status() must be non-nil after Start with WithStatusServer")
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

	rec.Update("A", "add", "x")
	rec.Update("B", "add", "y")
	rec.SyncPair("A", "B")
	rec.SyncPair("B", "A")

	// Probe the progress endpoint during the run: assertions execute while
	// exploration is live, so a snapshot taken here must report running.
	probed := false
	probe := erpi.Custom{Label: "status-probe", Fn: func(*erpi.Outcome) error {
		if probed {
			return nil
		}
		probed = true
		var prog telemetry.ProgressSnapshot
		if err := json.Unmarshal([]byte(get("/progress")), &prog); err != nil {
			t.Fatalf("mid-run progress JSON: %v", err)
		}
		if !prog.Running {
			t.Fatal("mid-run progress snapshot must report running")
		}
		return nil
	}}
	res, err := sess.End(probe, erpi.Convergence{})
	if err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("mid-run probe never executed")
	}

	var prog telemetry.ProgressSnapshot
	if err := json.Unmarshal([]byte(get("/progress")), &prog); err != nil {
		t.Fatalf("progress JSON: %v", err)
	}
	if prog.Running {
		t.Fatal("post-run progress snapshot must not report running")
	}
	if prog.Explored != int64(res.Explored) {
		t.Fatalf("progress explored = %d, want %d", prog.Explored, res.Explored)
	}
	if !strings.Contains(get("/metrics"), "runner.explored") {
		t.Fatal("metrics endpoint missing runner.explored")
	}
	if !strings.Contains(get("/debug/vars"), "erpi") {
		t.Fatal("expvar endpoint missing the erpi registry")
	}
	get("/debug/pprof/cmdline")
	if !strings.Contains(get("/trace"), `"execute"`) {
		t.Fatal("trace endpoint missing execute spans")
	}
}

// TestSessionTelemetry: WithTelemetry populates a caller-owned registry
// without changing the run's results, and the registry exports a trace.
// On the Table-1 rows at four workers, stopped at the first violation
// while work runs ahead of recording, /progress and runner.explored still
// read the run's Explored.
func TestSessionTelemetry(t *testing.T) {
	reg := erpi.NewTelemetry()
	sess, err := erpi.NewSession(newTwoReplicaCluster, erpi.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	rec.Update("A", "add", "x")
	rec.Update("B", "add", "y")
	rec.SyncPair("A", "B")
	rec.SyncPair("B", "A")
	res, err := sess.End(erpi.Convergence{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Metrics() != reg {
		t.Fatal("Metrics() must return the registry given to WithTelemetry")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["runner.explored"]; got != int64(res.Explored) {
		t.Fatalf("runner.explored = %d, want %d", got, res.Explored)
	}
	if hs := snap.Histograms["stage.execute_ns"]; hs.Count != int64(res.Explored) {
		t.Fatalf("execute spans = %d, want %d", hs.Count, res.Explored)
	}
	var buf bytes.Buffer
	if err := reg.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) {
		t.Fatal("trace export missing traceEvents")
	}

	for _, b := range bugs.All() {
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		asserts, err := b.NewAssertions()
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		res, err := runner.Run(s, runner.Config{
			Mode: runner.ModeERPi, Workers: 4, StopOnViolation: true,
			Assertions: asserts, Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		progress, counted := reg.Progress().Snapshot().Explored, reg.Snapshot().Counters["runner.explored"]
		if res.FirstViolation == 0 || progress != int64(res.Explored) || counted != int64(res.Explored) {
			t.Errorf("%s: first violation %d, /progress explored %d, runner.explored %d, Result.Explored %d",
				b.Name, res.FirstViolation, progress, counted, res.Explored)
		}
	}
}
