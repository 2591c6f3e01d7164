package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/forensics"
	"github.com/er-pi/erpi/internal/telemetry"
)

// TestFederatedTelemetryAndJobForensics is the issue's end-to-end pin: a
// violating job under a coordinator with two telemetry-reporting workers
// must (1) fold both workers' metrics into the fleet /metrics and
// /progress views with counters that stay monotone and sum across
// workers, (2) report the job's violations and quarantines and a rate
// for every worker that explored anything, (3) serve a Prometheus-valid
// text exposition under content negotiation, (4) merge both workers into
// the fleet trace, and (5) capture a forensic bundle on the coordinator
// host that `erpi explain` renders naming the violated assertion.
func TestFederatedTelemetryAndJobForensics(t *testing.T) {
	spec := JobSpec{Bug: "Roshi-2", Mode: "dfs", MaxInterleavings: testCap}
	reg := telemetry.New()
	root := t.TempDir()
	svc := startService(t, Options{JournalRoot: root, LeaseTTL: time.Second, Telemetry: reg})

	status, err := telemetry.NewStatusServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer status.Close()
	status.ServeFederation(svc.Federation())

	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Scrape fleet explored mid-run on a tight cadence; the sequence must
	// be monotone (cumulative per-worker snapshots can never fold into a
	// smaller sum).
	var samples []int64
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		for {
			select {
			case <-j.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
			resp, err := http.Get(status.URL() + "/metrics")
			if err != nil {
				continue
			}
			var snap telemetry.Snapshot
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if err == nil {
				samples = append(samples, snap.Counters["runner.explored"])
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = RunWorker(context.Background(), WorkerOptions{
				Addr:              svc.Addr(),
				Name:              fmt.Sprintf("w%d", i+1),
				Once:              true,
				Telemetry:         telemetry.New(),
				TelemetryInterval: 10 * time.Millisecond,
			})
		}(i)
	}
	st := waitDone(t, j)
	wg.Wait()
	<-sampleDone

	if st.State != StateDone {
		t.Fatalf("state = %s (%+v)", st.State, st)
	}
	if st.FirstViolation == 0 {
		t.Fatalf("Roshi-2 did not violate: %+v", st)
	}
	if !sort.SliceIsSorted(samples, func(a, b int) bool { return samples[a] < samples[b] }) {
		t.Fatalf("fleet explored counter not monotone across scrapes: %v", samples)
	}

	// Counters sum across workers: every worker reports its cumulative
	// snapshot after each committed range, so the fleet fold must account
	// for every executed interleaving.
	fed := svc.Federation()
	if fed.Workers() != 2 {
		t.Fatalf("federation folded %d workers, want 2", fed.Workers())
	}
	fleet := fed.Snapshot()
	if got := fleet.Counters["runner.explored"]; got != int64(st.Explored) {
		t.Fatalf("fleet runner.explored = %d, want %d", got, st.Explored)
	}
	// Assertions run in the coordinator's ledger, which counts into the
	// service registry the fleet view folds in.
	if got := fleet.Counters["runner.violations"]; got != int64(len(st.Violations)) {
		t.Fatalf("fleet runner.violations = %d, want the job's %d", got, len(st.Violations))
	}
	var perWorker int64
	for _, row := range fed.Progress().Workers {
		perWorker += row.Explored
	}
	if perWorker != int64(st.Explored) {
		t.Fatalf("per-worker explored rows sum to %d, want %d", perWorker, st.Explored)
	}

	get := func(path, accept string) (string, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, status.URL()+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// /progress serves the fleet breakdown with one row per worker.
	var prog telemetry.FleetProgress
	body, _ := get("/progress", "")
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("fleet progress JSON: %v", err)
	}
	if len(prog.Workers) != 2 || prog.Explored != int64(st.Explored) {
		t.Fatalf("fleet progress: %+v", prog)
	}
	if prog.Violations != int64(len(st.Violations)) || prog.Quarantined != int64(st.Quarantined) {
		t.Fatalf("fleet progress violations/quarantined = %d/%d, want the job's %d/%d",
			prog.Violations, prog.Quarantined, len(st.Violations), st.Quarantined)
	}
	for _, row := range prog.Workers {
		if row.Explored > 0 && row.PerSecond <= 0 {
			t.Fatalf("worker %s explored %d at per_second %v", row.Worker, row.Explored, row.PerSecond)
		}
	}

	// /metrics negotiates a valid Prometheus exposition carrying the fleet
	// counter.
	prom, ct := get("/metrics", "text/plain")
	if ct != telemetry.PrometheusContentType {
		t.Fatalf("negotiated content type = %q", ct)
	}
	if err := telemetry.ValidatePrometheus(strings.NewReader(prom)); err != nil {
		t.Fatalf("coordinator /metrics fails Prometheus validation: %v\n%s", err, prom)
	}
	if want := fmt.Sprintf("erpi_runner_explored_total %d", st.Explored); !strings.Contains(prom, want) {
		t.Fatalf("exposition missing %q:\n%s", want, prom)
	}

	// /trace merges one lane per worker.
	trace, _ := get("/trace", "")
	for _, want := range []string{"worker w1", "worker w2"} {
		if !strings.Contains(trace, want) {
			t.Fatalf("fleet trace missing lane %q", want)
		}
	}

	// The violating job captured forensic bundles on the coordinator side.
	if len(st.Bundles) == 0 {
		t.Fatalf("violating job captured no forensic bundles: %+v", st)
	}
	b, err := forensics.Load(st.Bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Index != st.FirstViolation {
		t.Fatalf("first bundle is for #%d, want first violation #%d", b.Index, st.FirstViolation)
	}
	if !strings.HasPrefix(st.Bundles[0], filepath.Join(root, j.ID())) {
		t.Fatalf("bundle %s is outside the job journal %s", st.Bundles[0], filepath.Join(root, j.ID()))
	}
	var narrative bytes.Buffer
	if err := forensics.Explain(&narrative, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(narrative.String(), st.Violations[0].Assertion) {
		t.Fatalf("explain output does not name the violated assertion %q:\n%s",
			st.Violations[0].Assertion, narrative.String())
	}
}

// TestJobBundlesSurviveManifestRestart pins that a resumed coordinator
// still reports a finished job's bundle paths from its manifest.
func TestJobBundlesSurviveManifestRestart(t *testing.T) {
	spec := JobSpec{Bug: "Roshi-2", Mode: "dfs", MaxInterleavings: testCap, StopOnViolation: true}
	root := t.TempDir()
	svc := startService(t, Options{JournalRoot: root, LeaseTTL: time.Second})
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: "w1", Once: true}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	st := waitDone(t, j)
	if len(st.Bundles) == 0 {
		t.Fatalf("no bundles captured: %+v", st)
	}
	_ = svc.Close()

	svc2 := startService(t, Options{JournalRoot: root, LeaseTTL: time.Second})
	if err := svc2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	j2, ok := svc2.Job(j.ID())
	if !ok {
		t.Fatalf("job %s not recovered", j.ID())
	}
	st2 := j2.Status()
	if len(st2.Bundles) != len(st.Bundles) || st2.Bundles[0] != st.Bundles[0] {
		t.Fatalf("bundles after restart = %v, want %v", st2.Bundles, st.Bundles)
	}
	if _, err := forensics.Load(st2.Bundles[0]); err != nil {
		t.Fatalf("recovered bundle unreadable: %v", err)
	}
}
