// Command erpi explores one benchmark workload with a chosen strategy:
//
//	erpi -list                            # list bug benchmarks and misconception scenarios
//	erpi -bug Roshi-1                     # reproduce a Table-1 bug with ER-π pruning
//	erpi -bug OrbitDB-5 -mode dfs         # the DFS baseline
//	erpi -bug Yorkie-2 -mode rand -seed 7 # the Rand baseline
//	erpi -bug Roshi-3 -mode fuzz -workers 8 # generation-batched feedback fuzzing
//	erpi -miscon "CRDTs#4"                # detect a misconception scenario
//	erpi explain forensic-000042.json     # narrate a violation forensic bundle
//	erpi promcheck metrics.txt            # validate Prometheus text exposition
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/coordinator"
	"github.com/er-pi/erpi/internal/forensics"
	"github.com/er-pi/erpi/internal/miscon"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

func main() {
	// Subcommands dispatch before flag parsing so their operands never
	// collide with exploration flags.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "explain":
			os.Exit(runExplain(os.Args[2:]))
		case "promcheck":
			os.Exit(runPromcheck(os.Args[2:]))
		}
	}
	os.Exit(run())
}

// runExplain renders one or more forensic bundles as causal narratives.
func runExplain(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: erpi explain <bundle.json> [...]")
		return 2
	}
	for _, path := range paths {
		b, err := forensics.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "erpi explain:", err)
			return 1
		}
		if err := forensics.Explain(os.Stdout, b); err != nil {
			fmt.Fprintln(os.Stderr, "erpi explain:", err)
			return 1
		}
	}
	return 0
}

// runPromcheck validates Prometheus text exposition from a file (or stdin
// with no argument) — the CI stand-in for promtool check metrics.
func runPromcheck(args []string) int {
	in := io.Reader(os.Stdin)
	src := "stdin"
	if len(args) > 0 {
		f, err := os.Open(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "erpi promcheck:", err)
			return 1
		}
		defer f.Close()
		in, src = f, args[0]
	}
	if err := telemetry.ValidatePrometheus(in); err != nil {
		fmt.Fprintf(os.Stderr, "erpi promcheck: %s: %v\n", src, err)
		return 1
	}
	fmt.Printf("%s: valid Prometheus text exposition\n", src)
	return 0
}

func run() int {
	var (
		list       = flag.Bool("list", false, "list available benchmarks")
		bugName    = flag.String("bug", "", "Table-1 bug benchmark to reproduce")
		misconName = flag.String("miscon", "", "misconception scenario to detect (e.g. CRDTs#4)")
		mode       = flag.String("mode", "erpi", "exploration mode: erpi, dfs, rand, fuzz")
		seed       = flag.Int64("seed", 1, "seed for rand and fuzz modes")
		fuzzGen    = flag.Int("fuzz-gen", 0, "fuzz mode: children per generation (0 = adaptive from the corpus novelty rate)")
		capN       = flag.Int("cap", runner.DefaultMaxInterleavings, "max interleavings to explore")
		verbose    = flag.Bool("v", false, "print every violation, not just the first")
		session    = flag.String("session", "", "journal directory: persist progress and resume interrupted runs")
		workers    = flag.Int("workers", 1, "concurrent executors (0 = one per CPU); results are identical at every count")
		liveN      = flag.Int("live-workers", 0, "route exploration through live replay (goroutine-per-replica, turn-gated) with this many concurrent sessions; 0 keeps the checkpointed engine")
		statusAddr = flag.String("status-addr", "", "serve live progress, metrics, pprof, and a Chrome trace on this host:port")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON file after the run (open in about://tracing)")
		coordURL   = flag.String("coordinator", "", "submit to a running erpi-coordinator's status URL (e.g. http://host:8080) and watch, instead of exploring locally")
		forensicD  = flag.String("forensics", "erpi-forensics", "capture a forensic bundle per violating interleaving into this directory (created only on violation; empty disables)")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "erpi:", err)
		return 1
	}
	if err := setLogLevel(*logLevel); err != nil {
		return fail(err)
	}

	// One spec for both paths: -coordinator submits it, a local run
	// explores exactly what it would have submitted.
	spec := coordinator.JobSpec{
		Bug:                *bugName,
		Miscon:             *misconName,
		Mode:               *mode,
		Seed:               *seed,
		FuzzGenerationSize: *fuzzGen,
		MaxInterleavings:   *capN,
		StopOnViolation:    !*verbose,
	}
	if *coordURL != "" && !*list {
		return submitRemote(*coordURL, spec, fail)
	}

	if *list {
		fmt.Println("Bug benchmarks (Table 1):")
		for _, b := range bugs.All() {
			fmt.Printf("  %-12s issue #%-5d %2d events  %s (%s)\n", b.Name, b.Issue, b.Events, b.Status, b.Reason)
		}
		fmt.Println("Misconception scenarios (Table 2):")
		for _, sc := range miscon.All() {
			fmt.Printf("  %-12s %s\n", sc.Name(), sc.Seeding)
		}
		return 0
	}
	if *bugName == "" && *misconName == "" {
		flag.Usage()
		return 2
	}

	scenario, asserts, err := spec.Build()
	if err != nil {
		return fail(fmt.Errorf("%w (try -list)", err))
	}
	cfg := spec.Config()
	cfg.Workers = *workers
	cfg.LiveWorkers = *liveN
	cfg.Assertions = asserts
	cfg.ForensicDir = *forensicD
	if *session != "" {
		dir, err := checkpoint.Open(*session)
		if err != nil {
			return fail(err)
		}
		cfg.Journal = dir
	}
	if *statusAddr != "" || *traceOut != "" {
		cfg.Telemetry = telemetry.New()
	}
	if *statusAddr != "" {
		srv, err := telemetry.NewStatusServer(*statusAddr, cfg.Telemetry)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Printf("status: http://%s/progress (metrics, trace, debug/vars, debug/pprof)\n", srv.Addr())
	}
	res, err := runner.Run(scenario, cfg)
	if err != nil {
		return fail(err)
	}

	fmt.Printf("%s: %d events, mode=%s, explored %d interleavings in %v\n",
		scenario.Name, scenario.Log.Len(), res.Mode, res.Explored, res.Duration.Round(1000))
	if res.Resumed > 0 {
		fmt.Printf("resumed past %d journaled interleavings\n", res.Resumed)
	}
	if len(res.Quarantined) > 0 {
		fmt.Printf("quarantined %d interleavings (kept failing after retries)\n", len(res.Quarantined))
		if *verbose {
			for _, q := range res.Quarantined {
				fmt.Println(" ", q)
			}
		}
	}
	if res.Fuzz != nil {
		fmt.Printf("fuzz: %d generations, corpus %d, coverage %d signatures, trajectory %.12s\n",
			res.Fuzz.Generations, res.Fuzz.CorpusSize, res.Fuzz.Coverage, res.Fuzz.TrajectoryDigest)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, cfg.Telemetry); err != nil {
			return fail(err)
		}
		fmt.Printf("trace: %s\n", *traceOut)
	}
	if cfg.Telemetry != nil {
		fmt.Print(cfg.Telemetry.Snapshot().Summary())
	}
	if res.FirstViolation > 0 {
		fmt.Printf("REPRODUCED at interleaving #%d\n", res.FirstViolation)
		if *verbose {
			for _, v := range res.Violations {
				fmt.Println(" ", v)
			}
		} else {
			fmt.Println(" ", res.Violations[0])
		}
		for _, path := range res.Bundles {
			fmt.Printf("forensics: %s (run `erpi explain %s`)\n", path, path)
		}
		return 0
	}
	fmt.Printf("not reproduced within %d interleavings (exhausted=%v)\n", *capN, res.Exhausted)
	return 3
}

// submitRemote posts the spec to a coordinator's jobs API and watches the
// job to completion, mapping its terminal status onto erpi's usual exit
// codes (0 = reproduced / detected, 3 = not reproduced).
func submitRemote(api string, spec coordinator.JobSpec, fail func(error) int) int {
	st, err := coordinator.SubmitJob(api, spec)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("submitted %s (%s) to %s\n", st.ID, st.Label, api)
	for st.State == coordinator.StateRunning {
		if st, err = coordinator.WaitJob(api, st.ID, 30); err != nil {
			return fail(err)
		}
		fmt.Printf("%s: %s, explored %d (leased %d, pending %d)\n",
			st.ID, st.State, st.Explored, st.RangesLeased, st.RangesPending)
	}
	if st.Error != "" {
		return fail(fmt.Errorf("coordinator: job %s %s: %s", st.ID, st.State, st.Error))
	}
	fmt.Printf("%s: %s, explored %d interleavings, digest %s\n", st.ID, st.State, st.Explored, st.Digest)
	if st.FirstViolation > 0 {
		fmt.Printf("REPRODUCED at interleaving #%d\n", st.FirstViolation)
		for _, v := range st.Violations {
			fmt.Printf("  #%d [%s] violates %s: %s\n", v.Index, v.Key, v.Assertion, v.Error)
		}
		for _, path := range st.Bundles {
			fmt.Printf("forensics: %s on the coordinator host (run `erpi explain %s` there)\n", path, path)
		}
		return 0
	}
	fmt.Println("not reproduced")
	return 3
}

// writeTrace dumps the registry's retained spans as Chrome trace_event
// JSON at path.
func writeTrace(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteTrace(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// setLogLevel applies -log-level (debug, info, warn or error) to the
// default slog logger, which the engine's warnings go through.
func setLogLevel(s string) error {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return err
	}
	slog.SetLogLoggerLevel(l)
	return nil
}
