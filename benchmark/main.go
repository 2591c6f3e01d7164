// Command benchmark is ER-π's one benchmark: time-to-first-violation and
// time-to-cap across the three exploration drivers and two cost models,
// plus a layer table traced from outside the engine. README.md has the
// metric and workload tables; BENCHMARK.json is the machine-readable
// contract.
//
//	bash benchmark/run.sh --workload cap-seq --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1 --out a.jsonl      # all workloads, both modes
//	bash benchmark/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// processStart anchors setup_s: package initialisation is as close to
// process start as Go code gets.
var processStart = time.Now()

// hostBlock stamps every output: numbers from hosts (or P) that differ
// are never compared.
type hostBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	P          int    `json:"p"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
	Start      string `json:"start"`
}

func readHost(p int) hostBlock {
	h := hostBlock{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		P:          p,
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
		Start:      processStart.UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if c := os.Getenv("ERPI_BENCH_COMMIT"); c != "" {
		h.Commit = c
	}
	return h
}

// record is one line of an -out file.
type record struct {
	Host hostBlock `json:"host"`
	runResult
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or \"all\" for every workload untraced then traced")
		seed         = flag.Int64("seed", 1, "input seed (the synth-crdts row is generated from it)")
		seconds      = flag.Float64("seconds", 10, "how long one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
		outPath      = flag.String("out", "", "append one JSON record per run to this file")
		traceOut     = flag.String("trace-out", "", "write the traced run's spans to this file as JSON (with -workload all: one file per workload, its name before the extension)")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments: base then candidate")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files: base then candidate"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	p := min(runtime.NumCPU(), 4)
	host := readHost(p)

	type job struct {
		w     *workload
		trace bool
	}
	var jobs []job
	if *workloadName == "all" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	} else {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		jobs = append(jobs, job{w, *trace != 0})
	}

	printHost(os.Stdout, host, *seed, *seconds)
	correct := true
	var lastResult *runResult
	begin := processStart
	for i, j := range jobs {
		if i > 0 {
			begin = time.Now()
		}
		var (
			res *runResult
			err error
		)
		if j.trace {
			spans := *traceOut
			if spans != "" && len(jobs) > 1 {
				ext := filepath.Ext(spans)
				spans = strings.TrimSuffix(spans, ext) + "." + j.w.name + ext
			}
			res, err = runTraced(j.w, p, *seed, defaultCap, *seconds, spans)
		} else {
			res, err = runUntraced(j.w, p, *seed, defaultCap, *seconds, begin)
		}
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		if *outPath != "" {
			if err := appendRecord(*outPath, record{host, *res}); err != nil {
				fatal(err)
			}
		}
		correct = correct && res.Correct
		lastResult = res
	}
	if len(jobs) == 1 {
		// The driver's contract: the last line of standard output is the
		// run's JSON object.
		fmt.Println(contractLine(lastResult))
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// contractLine renders {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
func contractLine(r *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	for _, d := range defsFor(r.Trace) {
		metrics[d.Name] = mv{r.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	return string(line)
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printHost(w io.Writer, h hostBlock, seed int64, seconds float64) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d P=%d %s %s cpu=%q commit=%s start=%s\n",
		h.NProc, h.GOMAXPROCS, h.P, h.GoVersion, h.OS, h.CPU, h.Commit, h.Start)
	fmt.Fprintf(w, "run: seed=%d seconds=%g cap=%d (Roshi-3 on cap-seq/-accel/-pool %d, live-lock %d)\n",
		seed, seconds, defaultCap, defaultCap*paperCapMul, defaultCap/liveCapDiv)
}

func printResult(w io.Writer, r *runResult) {
	mode := "untraced, end-to-end"
	if r.Trace {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "\n== %s (%s) ==\n", r.Workload, mode)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	if len(r.Rows) > 0 {
		fmt.Fprintln(tw, "row\tpasses\tinterleavings\tsubsumed\tmedian us\tq1 us\tq3 us\tp90 us\til/s")
		for _, rs := range r.Rows {
			p90 := "-"
			if rs.P90US > 0 {
				p90 = fmt.Sprintf("%.0f", rs.P90US)
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.0f\t%.0f\t%.0f\t%s\t%.0f\n",
				rs.Row, rs.Passes, rs.IL, rs.Subsumed, rs.MedianUS, rs.Q1US, rs.Q3US, p90, rs.ILPerS)
		}
		tw.Flush()
	}
	if len(r.Layers) > 0 {
		fmt.Fprintln(tw, "layer metric\trow\tvalue\tunit\tnote")
		for _, l := range r.Layers {
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%s\t%s\n", l.Metric, l.Row, l.Value, l.Unit, l.Note)
		}
		tw.Flush()
	}
	fmt.Fprintln(tw, "metric\tvalue\tunit")
	for _, d := range defsFor(r.Trace) {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	fmt.Fprintf(tw, "fail_share\t%.6g\tratio (%d failed / %d attempted)\n", r.FailShare, r.Failed, r.Attempted)
	tw.Flush()
	for _, n := range r.Notes {
		fmt.Fprintln(w, "WRONG:", n)
	}
}
