// Command erpi-coordinator runs ER-π's crash-tolerant distributed
// exploration service (DESIGN.md §4.11): a coordinator that leases
// contiguous interleaving ranges to workers over TCP — length-prefixed
// binary frames, one round trip per range — under heartbeat deadlines and
// epoch fencing, and the workers that serve it. serve and work must come
// from builds that speak the same protocol version: a worker of another
// one is refused at its hello and exits with an error instead of retrying.
//
//	erpi-coordinator serve -journal-root ./jobs -status-addr :8080
//	erpi-coordinator work -addr 127.0.0.1:7400 -name w1
//	erpi-coordinator submit -api http://127.0.0.1:8080 -bug Roshi-1 -wait 60
//
// serve prints its bound addresses on stdout ("coordinator listening on
// HOST:PORT", "status: http://HOST:PORT/jobs") so scripts can parse them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/er-pi/erpi/internal/coordinator"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintln(os.Stderr, `usage:
  erpi-coordinator serve  [flags]   run the coordinator service
  erpi-coordinator work   [flags]   run a worker against a coordinator (binary frames over TCP;
                                    exits if the coordinator speaks another protocol version)
  erpi-coordinator submit [flags]   submit a job to a running coordinator

run "erpi-coordinator <cmd> -h" for the flags of each subcommand`)
	return 2
}

func run(args []string) int {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:])
	case "work":
		return runWork(args[1:])
	case "submit":
		return runSubmit(args[1:])
	default:
		return usage()
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "erpi-coordinator:", err)
	return 1
}

func runServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:0", "worker listen address")
		journalRoot = fs.String("journal-root", "", "directory for per-job journals (required)")
		leaseTTL    = fs.Duration("lease-ttl", 2*time.Second, "range lease TTL: workers heartbeat every TTL/2, a range silent for 2.5 TTLs is requeued")
		rangeSize   = fs.Int("range-size", 16, "interleavings per lease")
		statusAddr  = fs.String("status-addr", "", "serve the jobs API, progress, and metrics on this host:port")
		resume      = fs.Bool("resume", true, "recover jobs found under -journal-root")
		localN      = fs.Int("local-workers", 0, "also run this many in-process workers")
		logLevel    = fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
	)
	_ = fs.Parse(args)
	if err := setLogLevel(*logLevel); err != nil {
		return fail(err)
	}
	if *journalRoot == "" {
		return fail(fmt.Errorf("serve: -journal-root is required"))
	}

	reg := telemetry.New()
	svc, err := coordinator.New(coordinator.Options{
		Addr:        *addr,
		JournalRoot: *journalRoot,
		LeaseTTL:    *leaseTTL,
		RangeSize:   *rangeSize,
		Telemetry:   reg,
	})
	if err != nil {
		return fail(err)
	}
	defer svc.Close()
	if *resume {
		if err := svc.Recover(); err != nil {
			return fail(err)
		}
	}
	fmt.Println("coordinator listening on", svc.Addr())

	if *statusAddr != "" {
		status, err := telemetry.NewStatusServer(*statusAddr, reg)
		if err != nil {
			return fail(err)
		}
		defer status.Close()
		// Fleet view: /progress, /metrics, and /trace now aggregate every
		// worker's telemetry reports on top of the coordinator's own.
		status.ServeFederation(svc.Federation())
		status.Handle("/jobs", svc.APIHandler())
		status.Handle("/jobs/", svc.APIHandler())
		fmt.Printf("status: http://%s/jobs\n", status.Addr())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < *localN; i++ {
		name := fmt.Sprintf("local-%d", i+1)
		// Each local worker gets its own registry so its lane in the fleet
		// view is distinct from the coordinator's.
		wreg := telemetry.New()
		go func() {
			_ = coordinator.RunWorker(ctx, coordinator.WorkerOptions{Addr: svc.Addr(), Name: name, Telemetry: wreg})
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("coordinator shutting down")
	return 0
}

func runWork(args []string) int {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "", "coordinator worker address (required)")
		name     = fs.String("name", "", "unique worker name (default w<pid>)")
		job      = fs.String("job", "", "serve only this job id")
		once     = fs.Bool("once", false, "exit after the first job completes")
		logLevel = fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
	)
	_ = fs.Parse(args)
	if err := setLogLevel(*logLevel); err != nil {
		return fail(err)
	}
	if *addr == "" {
		return fail(fmt.Errorf("work: -addr is required"))
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	err := coordinator.RunWorker(ctx, coordinator.WorkerOptions{
		Addr:      *addr,
		Name:      *name,
		Job:       *job,
		Once:      *once,
		Telemetry: telemetry.New(),
	})
	if err != nil && ctx.Err() == nil {
		return fail(err)
	}
	return 0
}

func runSubmit(args []string) int {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		api      = fs.String("api", "", "coordinator status URL, e.g. http://127.0.0.1:8080 (required)")
		bugName  = fs.String("bug", "", "Table-1 bug benchmark to explore")
		miscon   = fs.String("miscon", "", "misconception scenario to explore (e.g. CRDTs#4)")
		mode     = fs.String("mode", "erpi", "exploration mode: erpi, dfs, rand")
		seed     = fs.Int64("seed", 1, "seed for rand mode")
		capN     = fs.Int("cap", runner.DefaultMaxInterleavings, "max interleavings")
		rangeSz  = fs.Int("range-size", 0, "override the service's range size")
		stop     = fs.Bool("stop-on-violation", false, "end the job at the first assertion failure")
		wait     = fs.Int("wait", 0, "seconds to block for completion (0 = return immediately)")
		logLevel = fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
	)
	_ = fs.Parse(args)
	if err := setLogLevel(*logLevel); err != nil {
		return fail(err)
	}
	if *api == "" {
		return fail(fmt.Errorf("submit: -api is required"))
	}
	spec := coordinator.JobSpec{
		Bug:              *bugName,
		Miscon:           *miscon,
		Mode:             *mode,
		Seed:             *seed,
		MaxInterleavings: *capN,
		RangeSize:        *rangeSz,
		StopOnViolation:  *stop,
	}
	st, err := coordinator.SubmitJob(*api, spec)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("submitted %s (%s)\n", st.ID, st.Label)
	if *wait > 0 {
		if st, err = coordinator.WaitJob(*api, st.ID, *wait); err != nil {
			return fail(err)
		}
	}
	out, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(out))
	if *wait > 0 && st.State != coordinator.StateDone {
		return 3
	}
	return 0
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
