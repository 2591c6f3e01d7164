package runner

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/forensics"
	"github.com/er-pi/erpi/internal/telemetry"
)

func TestForensicBundleCapturedOnViolation(t *testing.T) {
	s := townReportScenario(t)
	dir := t.TempDir()
	res, err := Run(s, Config{
		Mode:            ModeERPi,
		Assertions:      []Assertion{municipalityInvariant{}},
		StopOnViolation: true,
		ForensicDir:     dir,
		Telemetry:       telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstViolation == 0 {
		t.Fatal("town report did not violate")
	}
	if len(res.Bundles) != 1 {
		t.Fatalf("bundles = %v, want exactly 1 with StopOnViolation", res.Bundles)
	}
	b, err := forensics.Load(res.Bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Scenario != "townreport" || b.Index != res.FirstViolation {
		t.Fatalf("bundle header: scenario=%q index=%d, want townreport #%d", b.Scenario, b.Index, res.FirstViolation)
	}
	if len(b.Violations) == 0 || b.Violations[0].Assertion != "municipality-receives-only-ph" {
		t.Fatalf("bundle violations: %+v", b.Violations)
	}
	if len(b.Events) != s.Log.Len() {
		t.Fatalf("bundle carries %d events, log has %d", len(b.Events), s.Log.Len())
	}
	if len(b.Steps) != len(b.Interleaving) {
		t.Fatalf("timeline has %d steps for %d delivered events", len(b.Steps), len(b.Interleaving))
	}
	for _, step := range b.Steps {
		if step.StateHash == "" || len(step.Replicas) != 3 {
			t.Fatalf("incomplete step: %+v", step)
		}
	}
	if b.Baseline == nil || len(b.BaselineStepHashes) == 0 {
		t.Fatal("bundle is missing the recorded-order baseline")
	}
	// The violating re-execution must reproduce the violating outcome: the
	// municipality saw more than the pothole.
	if got := b.Final.Fingerprints["M"]; got == "ph" {
		t.Fatalf("re-executed final state M=%q does not reproduce the violation", got)
	}
	if base := b.Baseline.Fingerprints["M"]; base != "ph" {
		t.Fatalf("baseline final state M=%q, want ph", base)
	}

	var out bytes.Buffer
	if err := forensics.Explain(&out, b); err != nil {
		t.Fatal(err)
	}
	narrative := out.String()
	for _, want := range []string{
		"municipality-receives-only-ph",
		"first diverges from the recorded schedule at step",
		"DIFFERS from recorded",
		"final replica states",
	} {
		if !strings.Contains(narrative, want) {
			t.Fatalf("explain output missing %q:\n%s", want, narrative)
		}
	}
}

func TestForensicCaptureOffByDefault(t *testing.T) {
	s := townReportScenario(t)
	res, err := Run(s, Config{
		Mode:            ModeERPi,
		Assertions:      []Assertion{municipalityInvariant{}},
		StopOnViolation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bundles) != 0 {
		t.Fatalf("bundles captured without ForensicDir: %v", res.Bundles)
	}
}

func TestForensicBundleCap(t *testing.T) {
	s := townReportScenario(t)
	dir := t.TempDir()
	res, err := Run(s, Config{
		Mode:        ModeERPi,
		Assertions:  []Assertion{municipalityInvariant{}},
		ForensicDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) <= DefaultMaxForensicBundles {
		t.Fatalf("want more violations than the cap, got %d", len(res.Violations))
	}
	if len(res.Bundles) != DefaultMaxForensicBundles {
		t.Fatalf("bundles = %d, want capped at %d", len(res.Bundles), DefaultMaxForensicBundles)
	}
}

func TestForensicBundlesIdenticalAcrossWorkerCounts(t *testing.T) {
	read := func(workers int) []byte {
		t.Helper()
		s := townReportScenario(t)
		dir := t.TempDir()
		res, err := Run(s, Config{
			Mode:            ModeERPi,
			Workers:         workers,
			Assertions:      []Assertion{municipalityInvariant{}},
			StopOnViolation: true,
			ForensicDir:     dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Bundles) != 1 {
			t.Fatalf("workers=%d bundles = %v", workers, res.Bundles)
		}
		data, err := os.ReadFile(res.Bundles[0])
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq := read(1)
	pooled := read(4)
	if !bytes.Equal(seq, pooled) {
		t.Fatal("forensic bundle bytes differ between workers=1 and workers=4")
	}
}
