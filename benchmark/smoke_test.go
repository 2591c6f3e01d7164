package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// contractFile mirrors BENCHMARK.json.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contractFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesTables pins BENCHMARK.json against the tables the
// harness and -compare actually use.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %s: %s", i, c.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound):
				t.Errorf("%s %s: bound differs from the harness's %v", kind, d.Name, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at cap 200 (800 on the paper-cap row), the
// workload's minimum pass count, P=2, untraced and traced, and checks that every metric BENCHMARK.json names is emitted
// with a finite value, that no verdict was wrong (which includes: the
// stepper's signature set equals runner.Run's), and that end-to-end
// metrics are never zero.
func TestSmoke(t *testing.T) {
	const (
		smokeCap = 200
		smokeP   = 2
	)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			untraced, err := runUntraced(w, smokeP, 1, smokeCap, 0, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, smokeP, 1, smokeCap, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []*runResult{untraced, traced} {
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v failed=%d attempted=%d notes=%v", res.Trace, res.Correct, res.Failed, res.Attempted, res.Notes)
				}
				defs := defsFor(res.Trace)
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics emitted, %d defined", res.Trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s not emitted", res.Trace, d.Name)
					case math.IsNaN(v) || math.IsInf(v, 0):
						t.Errorf("trace=%v: %s = %v", res.Trace, d.Name, v)
					case !res.Trace && v <= 0:
						t.Errorf("end-to-end %s = %v, must be positive", d.Name, v)
					case d.Unit == "":
						t.Errorf("%s has no unit", d.Name)
					}
				}
				var line struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
					t.Fatalf("contract line: %v", err)
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("contract line carries %d metrics, want %d", len(line.Metrics), len(defs))
				}
			}
		})
	}
}

// TestStepperMatchesRun is the stepper's pin on its own: driven from
// outside, it must see exactly the signature set runner.Run reports, with
// the accelerators off and on.
func TestStepperMatchesRun(t *testing.T) {
	for _, name := range []string{"cap-seq", "cap-accel"} {
		pr, err := prepare(workloadByName(name), 2, 2, 200)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		for i, r := range pr.env.rows {
			sr, err := step(tr, pr.env, r)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sr.set.setDigest(), pr.refs[i].set; got != want {
				t.Errorf("%s/%s: stepper signature set %.12s, runner.Run %.12s", name, r.name, got, want)
			}
			if sr.explored != pr.refs[i].explored {
				t.Errorf("%s/%s: stepper explored %d, runner.Run %d", name, r.name, sr.explored, pr.refs[i].explored)
			}
		}
		pr.env.close()
	}
}

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
	vs := []float64{11, 1, 7, 2, 4}
	for q, want := range map[float64]float64{0.25: 1.5, 0.5: 4, 0.75: 9} {
		if got := quantile(vs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestCompareReadsWhatOutWrites: two -out files of the same run compare as
// unchanged; a slower candidate compares as regressed; files that differ in
// P, cap or seconds are refused; fail_share is compared as a share.
func TestCompareReadsWhatOutWrites(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs int, passUS float64, edit func(*record)) string {
		path := dir + "/" + name
		for i := 0; i < runs; i++ {
			rec := record{hostBlock{NProc: 2, P: 2}, runResult{
				Workload: "cap-seq", Seed: int64(i), Cap: 2500, Seconds: 10, Attempted: 1000,
				Metrics: map[string]float64{"pass_us": passUS + float64(i)},
			}}
			if edit != nil {
				edit(&rec)
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base", 3, 1000, nil)
	if regressed, err := compareFiles(io.Discard, base, write("same", 3, 1001, nil)); err != nil || regressed {
		t.Errorf("same: regressed=%v err=%v", regressed, err)
	}
	if regressed, err := compareFiles(io.Discard, base, write("slow", 3, 1400, nil)); err != nil || !regressed {
		t.Errorf("slow: regressed=%v err=%v", regressed, err)
	}
	for name, edit := range map[string]func(*record){
		"p":       func(r *record) { r.Host.P = 4 },
		"cap":     func(r *record) { r.Cap = 500 },
		"seconds": func(r *record) { r.Seconds = 2 },
	} {
		if _, err := compareFiles(io.Discard, base, write("other-"+name, 3, 1000, edit)); err == nil {
			t.Errorf("a candidate with another %s was compared", name)
		}
	}
	// One failure in each run: the same share, however many runs a file holds.
	oneFailed := func(r *record) { r.Failed = 1 }
	failing3, failing6 := write("failing3", 3, 1000, oneFailed), write("failing6", 6, 1000, oneFailed)
	if regressed, err := compareFiles(io.Discard, failing3, failing6); err != nil || regressed {
		t.Errorf("same fail_share over more runs: regressed=%v err=%v", regressed, err)
	}
	if regressed, err := compareFiles(io.Discard, base, failing3); err != nil || !regressed {
		t.Errorf("fail_share 0 -> 0.001: regressed=%v err=%v", regressed, err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "pass_us", Better: lower, Bound: 0.10}
	base := sample{100, 101, 102, 100, 99}
	for _, c := range []struct {
		cand sample
		want string
	}{
		{sample{103, 104, 102, 103, 105}, "ok"},
		{sample{120, 121, 119, 120, 122}, "regressed"},
		{sample{80, 130, 100, 95, 125}, "unresolved"},
		// Two runs have no quartiles to speak of.
		{sample{120, 121}, "unresolved"},
	} {
		if _, got := verdict(d, base, c.cand); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.cand, got, c.want)
		}
	}
}

// TestFoldKeepsNegativeRows: a difference-type metric is folded over all
// its rows, the negative ones too.
func TestFoldKeepsNegativeRows(t *testing.T) {
	var l layers
	for row, v := range map[string]float64{"a": 3000, "b": -22000, "c": 4000} {
		l.add("runner.execute_self_ns", row, v, "")
		l.add("runner.execute_ns", row, 10000, "")
	}
	got := l.fold()
	if got["runner.execute_self_ns"] != -5000 {
		t.Errorf("execute_self_ns folded to %v, want the mean of all rows, -5000", got["runner.execute_self_ns"])
	}
	if math.Abs(got["runner.execute_ns"]-10000) > 1e-6 {
		t.Errorf("execute_ns folded to %v, want 10000", got["runner.execute_ns"])
	}
}
