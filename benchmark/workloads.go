package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/coordinator"
	"github.com/er-pi/erpi/internal/lockserver"
	"github.com/er-pi/erpi/internal/proxy"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Benchmark-wide constants. They are constants, not flags, because a
// metric is only comparable between two runs that agree on all of them.
const (
	// defaultCap is the exploration cap of the cap workloads' rows. The
	// paper's cap is 10 000; three passes of the five rows at that cap take
	// 17 s on a 2-core host, more than one driver run may measure, so rows
	// run a quarter of it — except the rows named in paperCapRows.
	defaultCap = 2500
	// paperCapMul brings a row back to the paper's cap.
	paperCapMul = 4
	// accelBytes is the prefix-cache and the subsumption-table budget of
	// the "accelerators on" workloads, passed exactly as a user would.
	accelBytes = 1 << 20
	// rttSleep is the simulated per-interleaving round trip of cap-rtt.
	rttSleep = time.Millisecond
	// distRangeSize is the dist workload's lease granularity.
	distRangeSize = 32
	// liveCapDiv: a live interleaving pays a loopback round trip per turn,
	// so live-lock replays the first cap/liveCapDiv interleavings.
	liveCapDiv = 5
	liveTTL    = 10 * time.Second
	passLimit  = 2 * time.Minute
	// tableFullShare of its budget is where a subsumption table counts as
	// full: it evicts from then on and never holds less.
	tableFullShare = 0.95
)

// paperCapRows run at the paper's cap on cap-seq, cap-accel and cap-pool.
// Roshi-3 is the one row whose 1 MiB subsumption table fills and
// evicts before the cap, which turns the accelerators' 1.4x
// speed-up at 2500 into a 0.6-0.7x slow-down at 10 000. A run without that row
// would report the opposite sign to the paper-cap behaviour.
var paperCapRows = map[string]int{"Roshi-3": paperCapMul}

// pinnedFirstViolation is Fig. 8a: the 1-based index at which ER-π
// reproduces each Table-1 bug. A run that finds a bug anywhere else is a
// wrong verdict, whatever its speed.
var pinnedFirstViolation = map[string]int{
	"Roshi-1": 19, "Roshi-2": 10, "Roshi-3": 115,
	"OrbitDB-1": 7, "OrbitDB-2": 9, "OrbitDB-3": 13, "OrbitDB-4": 121, "OrbitDB-5": 121,
	"ReplicaDB-1": 25, "ReplicaDB-2": 1801,
	"Yorkie-1": 25, "Yorkie-2": 25,
}

type driver int

const (
	inProcess   driver = iota // runner.Run on the checkpointed engine
	liveLock                  // runner.Run with LiveWorkers over a lock server
	distributed               // coordinator + TCP workers
)

// workload is one row of BENCHMARK.json's workloads table.
type workload struct {
	name string
	why  string
	rows []string
	// driver picks which of ER-π's three exploration drivers runs a pass.
	driver driver
	// stop: StopOnViolation, i.e. time-to-first-violation instead of
	// time-to-cap. Such rows have no cap (the bug must be reached).
	stop bool
	// accel: prefix cache + subsumption on. Subsumed interleavings yield no
	// outcome, so these workloads are checked on the signature set only.
	accel bool
	// parallel: P workers instead of 1.
	parallel bool
	// rtt: charge rttSleep per executed interleaving.
	rtt bool
	// capDiv divides the cap for this workload's rows (0 = 1); capMul
	// multiplies it for the rows it names.
	capDiv int
	capMul map[string]int
	// vsSeq names the per-layer metric that holds this workload's speed-up
	// over the cap-seq configuration of the same rows ("" = none).
	vsSeq string
	// minPasses is the fewest timed passes per row a run reports on, even
	// if that overruns -seconds.
	minPasses int
}

var capRows = []string{"Roshi-3", "OrbitDB-5", "ReplicaDB-2", "Yorkie-1", synthRowName}

func table1Names() []string {
	var names []string
	for _, b := range bugs.All() {
		names = append(names, b.Name)
	}
	return names
}

var workloads = []*workload{
	{name: "ttfv", rows: table1Names(), stop: true, minPasses: 10,
		why: "Fig. 8b: the 12 Table-1 bugs to first violation; runs last 7-1801 interleavings, so prune/interleave/cluster set-up dominate"},
	{name: "cap-seq", rows: capRows, capMul: paperCapRows, minPasses: 3,
		why: "time-to-cap on one worker, accelerators off: executor + replica + subjects do the work; ReplicaDB-2 exposes engine overhead, Yorkie-1 event cost"},
	{name: "cap-accel", rows: capRows, capMul: paperCapRows, accel: true, vsSeq: "runner.accel_speedup", minPasses: 3,
		why: "same rows with prefix cache + subsumption: the avoidance layers and incremental hashing do the work that cap-seq bypasses"},
	{name: "cap-pool", rows: capRows, capMul: paperCapRows, parallel: true, vsSeq: "runner.pool_speedup", minPasses: 3,
		why: "same rows on P workers, accelerators off: pool dispatch and reorder with CPU-bound tasks of 16-330 us"},
	{name: "cap-rtt", rows: []string{"Roshi-3", "OrbitDB-5"}, accel: true, parallel: true, rtt: true, minPasses: 2,
		why: "RTT-shaped cost: 1 ms sleep per executed interleaving, so wall = executed x RTT / overlap and avoidance is worth what it skips"},
	{name: "live-lock", rows: []string{"Roshi-3", "OrbitDB-5"}, driver: liveLock, parallel: true, capDiv: liveCapDiv, minPasses: 3,
		why: "the paper's live replay path: proxy gates against a lock server over real loopback round trips, no simulated delay"},
	{name: "dist", rows: []string{"Roshi-3", "ReplicaDB-2"}, driver: distributed, parallel: true, minPasses: 3,
		why: "the third driver: coordinator range ledger, leases, wire and result journal with P TCP workers"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// row is one scenario of a workload.
type row struct {
	name string
	// build records the workload afresh and returns new assertion
	// instances (assertions may carry state across interleavings).
	build func() (runner.Scenario, []runner.Assertion, error)
	// cap is the row's MaxInterleavings (0 on stop rows: engine default).
	cap int
}

// env is what one workload run holds open between passes.
type env struct {
	w    *workload
	p    int
	seed int64
	rows []*row

	lockSrv  *lockserver.Server
	lockAddr string
	coord    *coordinator.Service
	tmpRoot  string
	passSeq  atomic.Int64

	// rttExecuted counts Finalize calls of rtt passes; rttSlept sums the
	// measured sleeps (only when timeSleeps is set — the traced run).
	rttExecuted atomic.Int64
	rttSlept    atomic.Int64
	timeSleeps  bool
}

// newEnv builds the workload's rows and starts whatever servers its driver
// needs. The caller must close it.
func newEnv(w *workload, p int, seed int64, capIL int) (*env, error) {
	e := &env{w: w, p: p, seed: seed}
	rowCap := capIL
	if w.capDiv > 1 {
		rowCap = capIL / w.capDiv
	}
	if w.stop {
		rowCap = 0
	}
	for _, name := range w.rows {
		r := &row{name: name, cap: rowCap}
		if m := w.capMul[name]; m > 1 {
			r.cap *= m
		}
		if name == synthRowName {
			r.build = func() (runner.Scenario, []runner.Assertion, error) { return synthScenario(seed) }
		} else {
			bug, ok := bugs.ByName(name)
			if !ok {
				return nil, fmt.Errorf("benchmark: unknown bug %q", name)
			}
			r.build = func() (runner.Scenario, []runner.Assertion, error) {
				s, err := bug.Build()
				if err != nil {
					return s, nil, err
				}
				as, err := bug.NewAssertions()
				return s, as, err
			}
		}
		e.rows = append(e.rows, r)
	}
	switch w.driver {
	case liveLock:
		e.lockSrv = lockserver.NewServer(lockserver.NewStore())
		addr, err := e.lockSrv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("benchmark: lock server: %w", err)
		}
		e.lockAddr = addr
	case distributed:
		root, err := os.MkdirTemp("", "erpi-benchmark-dist-*")
		if err != nil {
			return nil, err
		}
		e.tmpRoot = root
		e.coord, err = coordinator.New(coordinator.Options{
			Addr:        "127.0.0.1:0",
			JournalRoot: root,
			LeaseTTL:    2 * time.Second,
		})
		if err != nil {
			os.RemoveAll(root)
			return nil, err
		}
	}
	return e, nil
}

func (e *env) close() {
	if e.coord != nil {
		e.coord.Close()
	}
	if e.lockSrv != nil {
		e.lockSrv.Close()
	}
	if e.tmpRoot != "" {
		os.RemoveAll(e.tmpRoot)
	}
}

// passOpt varies a pass away from the workload's own configuration.
type passOpt struct {
	// base runs the cap-seq configuration on the row instead: one worker,
	// accelerators off, no delay, in process. It is the reference every
	// other configuration's outcomes are checked against.
	base bool
	// observe sees every outcome (reference and verification passes only:
	// timed passes run without a hook, as a user's would).
	observe func(*runner.Outcome)
	// reg, when set, is attached as the run's telemetry registry.
	reg *telemetry.Registry
	// workers overrides the worker count (0 = the workload's).
	workers int
	// localGates makes a live pass use in-process gates, no lock server.
	localGates bool
	// lockHook and turnWait instrument a live pass's lock-server clients.
	lockHook lockserver.FaultHook
	turnWait *telemetry.Histogram
}

// passResult is what one pass over one row produced.
type passResult struct {
	wall time.Duration
	// il is the interleavings the pass accounts for: FirstViolation on a
	// stop row, otherwise Explored (subsumed ones included — they consume
	// the cap).
	il             int
	explored       int
	subsumed       int
	firstViolation int
	// failed counts quarantined interleavings (and, on dist, a job that
	// did not end done).
	failed int
	// digest is the coordinator's outcome digest (dist passes only).
	digest   string
	requeues int
}

// pass runs one row once, timed from scenario build to the driver
// returning.
func (e *env) pass(r *row, opt passOpt) (passResult, error) {
	w := e.w
	workers := 1
	if w.parallel && !opt.base {
		workers = e.p
	}
	if opt.workers > 0 {
		workers = opt.workers
	}
	if w.driver == distributed && !opt.base {
		return e.distPass(r, workers, opt)
	}

	start := time.Now()
	s, asserts, err := r.build()
	if err != nil {
		return passResult{}, err
	}
	cfg := runner.Config{
		Mode:             runner.ModeERPi,
		MaxInterleavings: r.cap,
		Seed:             e.seed,
		Workers:          workers,
		StopOnViolation:  w.stop,
		Assertions:       asserts,
		OnOutcome:        opt.observe,
		Telemetry:        opt.reg,
	}
	if !opt.base {
		if w.accel {
			cfg.PrefixCacheBytes = accelBytes
			cfg.SubsumptionTable = accelBytes
		}
		if w.rtt {
			s.Finalize = e.withRTT(s.Finalize)
		}
		if w.driver == liveLock {
			cfg.Workers = 0
			cfg.LiveWorkers = workers
			if !opt.localGates {
				gates, closeGates := e.lockGates(opt)
				defer closeGates()
				cfg.LiveGates = gates
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), passLimit)
	defer cancel()
	res, err := runner.RunContext(ctx, s, cfg)
	if err != nil {
		return passResult{}, fmt.Errorf("%s/%s: %w", w.name, r.name, err)
	}
	out := passResult{
		wall:           time.Since(start),
		il:             res.Explored,
		explored:       res.Explored,
		subsumed:       res.Subsumed,
		firstViolation: res.FirstViolation,
		failed:         len(res.Quarantined),
	}
	if res.Interrupted || res.Crashed {
		out.failed++
	}
	if w.stop {
		out.il = res.FirstViolation
	}
	return out, nil
}

// withRTT wraps a Finalize so every executed interleaving pays rttSleep on
// the worker goroutine, exactly where a live replay would wait on the
// wire (the erpi-bench -fuzz technique).
func (e *env) withRTT(finalize func(*replica.Cluster) error) func(*replica.Cluster) error {
	return func(c *replica.Cluster) error {
		if e.timeSleeps {
			t := time.Now()
			time.Sleep(rttSleep)
			e.rttSlept.Add(int64(time.Since(t)))
		} else {
			time.Sleep(rttSleep)
		}
		e.rttExecuted.Add(1)
		if finalize != nil {
			return finalize(c)
		}
		return nil
	}
}

// lockGates builds lock-server-backed gate sessions, one DistPool per live
// worker, under a key namespace no earlier pass has used.
func (e *env) lockGates(opt passOpt) (runner.LiveGates, func()) {
	base := fmt.Sprintf("bench%d", e.passSeq.Add(1))
	var (
		mu    sync.Mutex
		pools []*proxy.DistPool
	)
	gates := func(worker int) (runner.SessionFactory, error) {
		p := proxy.NewDistPool(e.lockAddr, base, worker, liveTTL)
		if opt.lockHook != nil {
			p.SetFaultHook(opt.lockHook)
		}
		if opt.turnWait != nil {
			p.SetTurnWaitMetrics(opt.turnWait)
		}
		mu.Lock()
		pools = append(pools, p)
		mu.Unlock()
		return func() (runner.LiveSession, error) { return p.Session(), nil }, nil
	}
	closeAll := func() {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range pools {
			p.Close()
		}
	}
	return gates, closeAll
}

// distPass submits the row as a coordinator job and serves it with n TCP
// workers until it is done.
func (e *env) distPass(r *row, n int, opt passOpt) (passResult, error) {
	svc := e.coord
	if opt.reg != nil {
		// A traced pass gets a coordinator of its own so the registry sees
		// this job's ranges only; it starts before the clock does.
		root, err := os.MkdirTemp(e.tmpRoot, "traced-*")
		if err != nil {
			return passResult{}, err
		}
		svc, err = coordinator.New(coordinator.Options{
			Addr:        "127.0.0.1:0",
			JournalRoot: root,
			LeaseTTL:    2 * time.Second,
			Telemetry:   opt.reg,
		})
		if err != nil {
			return passResult{}, err
		}
		defer svc.Close()
	}
	start := time.Now()
	job, err := svc.Submit(coordinator.JobSpec{
		Bug:              r.name,
		Mode:             string(runner.ModeERPi),
		Seed:             e.seed,
		MaxInterleavings: r.cap,
		RangeSize:        distRangeSize,
	})
	if err != nil {
		return passResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), passLimit)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The worker's error is the job's: a worker that gives up
			// leaves the job short of done, which the status check reports.
			_ = coordinator.RunWorker(ctx, coordinator.WorkerOptions{
				Addr:      svc.Addr(),
				Name:      fmt.Sprintf("bench-%d", i),
				Job:       job.ID(),
				Telemetry: opt.reg,
			})
		}(i)
	}
	var timedOut bool
	select {
	case <-job.Done():
	case <-ctx.Done():
		timedOut = true
	}
	wall := time.Since(start)
	cancel()
	wg.Wait()
	st := job.Status()
	if timedOut {
		return passResult{}, fmt.Errorf("dist/%s: timed out (%+v)", r.name, st)
	}
	out := passResult{
		wall:           wall,
		il:             st.Explored,
		explored:       st.Explored,
		subsumed:       st.Subsumed,
		firstViolation: st.FirstViolation,
		failed:         st.Quarantined,
		digest:         st.Digest,
		requeues:       st.Requeues,
	}
	if st.State != coordinator.StateDone {
		out.failed++
	}
	return out, nil
}
