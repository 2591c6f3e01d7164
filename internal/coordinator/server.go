package coordinator

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/er-pi/erpi/internal/lockserver"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Options configures a coordinator Service.
type Options struct {
	// Addr is the TCP address workers connect to ("127.0.0.1:0" binds an
	// ephemeral port; read it back with Addr()).
	Addr string
	// LockAddr, when non-empty, is the lockserver workers take per-range
	// leases on, and the coordinator's second orphan-detection signal.
	// Empty runs heartbeat-only liveness (single-machine setups).
	LockAddr string
	// JournalRoot is the directory holding one checkpoint journal dir per
	// job. Required: it is the crash-recovery substrate.
	JournalRoot string
	// LeaseTTL is the lockserver lease TTL and the base of the heartbeat
	// grace period (default 2s).
	LeaseTTL time.Duration
	// RangeSize is how many interleavings one lease covers (default 16;
	// JobSpec.RangeSize overrides per job).
	RangeSize int
	// Telemetry, when set, receives coordinator metrics and lease/commit
	// spans.
	Telemetry *telemetry.Registry
}

// svcTel holds the coordinator's metric handles, resolved once; call
// sites use them directly. Without a registry every handle is nil and
// every call on one a no-op.
type svcTel struct {
	reg         *telemetry.Registry
	workersLive *telemetry.Gauge
	jobsRunning *telemetry.Gauge
	requests    *telemetry.Counter // worker frames, i.e. round trips
	batches     *telemetry.Counter // group commits: syncs of a job's record log
	leased      *telemetry.Counter
	committed   *telemetry.Counter
	requeued    *telemetry.Counter
	fenced      *telemetry.Counter
	rejected    *telemetry.Counter
	heartbeats  *telemetry.Counter
	poisoned    *telemetry.Counter
	subsumed    *telemetry.Counter
}

func newSvcTel(reg *telemetry.Registry) *svcTel {
	if reg == nil {
		return &svcTel{}
	}
	return &svcTel{
		reg:         reg,
		workersLive: reg.Gauge("coordinator.workers_live"),
		jobsRunning: reg.Gauge("coordinator.jobs_running"),
		requests:    reg.Counter("coordinator.requests"),
		batches:     reg.Counter("coordinator.batches"),
		leased:      reg.Counter("coordinator.ranges_leased"),
		committed:   reg.Counter("coordinator.ranges_committed"),
		requeued:    reg.Counter("coordinator.ranges_requeued"),
		fenced:      reg.Counter("coordinator.fence_rejections"),
		rejected:    reg.Counter("coordinator.commits_rejected"),
		heartbeats:  reg.Counter("coordinator.heartbeats"),
		poisoned:    reg.Counter("coordinator.ranges_poisoned"),
		subsumed:    reg.Counter("coordinator.subsumed"),
	}
}

// span opens a coordinator-lane span of the given stage.
func (t *svcTel) span(stage telemetry.Stage) telemetry.SpanStart {
	return t.reg.StartSpan(stage, 0, telemetry.CoordinatorWorker)
}

// Service is the coordinator: it accepts worker connections, leases
// ranges, aggregates results, and hosts the jobs API.
type Service struct {
	opts Options
	ln   net.Listener
	tel  *svcTel
	fed  *telemetry.Federation

	lockMu sync.Mutex
	lock   *lockserver.Client // lazy janitor client for lease inspection

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string
	nextJob int
	closed  bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// New starts a coordinator service listening on opts.Addr.
func New(opts Options) (*Service, error) {
	if opts.JournalRoot == "" {
		return nil, fmt.Errorf("coordinator: JournalRoot is required")
	}
	if err := os.MkdirAll(opts.JournalRoot, 0o755); err != nil {
		return nil, err
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 2 * time.Second
	}
	if opts.RangeSize <= 0 {
		opts.RangeSize = 16
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("coordinator: listen: %w", err)
	}
	s := &Service{
		opts: opts,
		ln:   ln,
		tel:  newSvcTel(opts.Telemetry),
		fed:  telemetry.NewFederation(opts.Telemetry),
		jobs: make(map[string]*Job),
		stop: make(chan struct{}),
	}
	s.fed.SetLeaseSource(s.leasesByWorker)
	s.wg.Add(2)
	go s.acceptLoop()
	go s.janitor()
	return s, nil
}

// Addr is the bound worker address.
func (s *Service) Addr() string { return s.ln.Addr().String() }

// Federation is the coordinator's fleet-wide telemetry view, fed by
// worker telemetry reports. Mount it on a status server
// (StatusServer.ServeFederation) to get cluster-level /progress,
// /metrics, and /trace.
func (s *Service) Federation() *telemetry.Federation { return s.fed }

// leasesByWorker counts currently leased ranges per worker name across
// every job — the fleet progress view's ledger column.
func (s *Service) leasesByWorker() map[string]int {
	out := make(map[string]int)
	for _, j := range s.Jobs() {
		j.leasesByWorker(out)
	}
	return out
}

// Submit opens a new job from the spec and starts serving it.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("coordinator: service closed")
	}
	var id string
	for {
		s.nextJob++
		id = fmt.Sprintf("job-%03d", s.nextJob)
		if _, taken := s.jobs[id]; taken {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.opts.JournalRoot, id)); err == nil {
			continue // dir from a prior incarnation not yet resumed
		}
		break
	}
	j, err := openJob(id, spec, filepath.Join(s.opts.JournalRoot, id), s.opts.RangeSize, s.opts.LeaseTTL, s.tel)
	if err != nil {
		return nil, err
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.tel.jobsRunning.Add(1)
	return j, nil
}

// Recover reopens every job directory under JournalRoot — the coordinator
// crash-recovery path. Finished jobs restore read-only from their
// manifest; running jobs resume: recorded interleavings replay from the
// record log, everything else re-carves from a fresh explorer under the
// indices it had.
func (s *Service) Recover() error {
	entries, err := os.ReadDir(s.opts.JournalRoot)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range names {
		if _, live := s.jobs[name]; live {
			continue
		}
		var m jobManifest
		dir := filepath.Join(s.opts.JournalRoot, name)
		if err := loadManifest(dir, &m); err != nil {
			continue // not a job dir
		}
		j, err := openJob(name, m.Spec, dir, s.opts.RangeSize, s.opts.LeaseTTL, s.tel)
		if err != nil {
			return fmt.Errorf("coordinator: recover %s: %w", name, err)
		}
		s.jobs[name] = j
		s.order = append(s.order, name)
		if n := numericSuffix(name); n > s.nextJob {
			s.nextJob = n
		}
		if j.Status().State == StateRunning {
			s.tel.jobsRunning.Add(1)
		}
	}
	return nil
}

func loadManifest(dir string, m *jobManifest) error {
	data, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, m)
}

// numericSuffix parses the N of "job-N" names (0 when not of that form).
func numericSuffix(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return 0
	}
	return n
}

// Job looks a job up by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists jobs in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel terminates a job.
func (s *Service) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.cancel()
	return true
}

// Close shuts the service down: stop accepting, stop the janitor, close
// every job's files. Running jobs stay resumable from their journals.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	s.mu.Unlock()
	err := s.ln.Close()
	for _, j := range s.Jobs() {
		j.shutdown() // a lease waiting on its job would hold its connection open
	}
	s.wg.Wait()
	s.lockMu.Lock()
	if s.lock != nil {
		_ = s.lock.Close()
		s.lock = nil
	}
	s.lockMu.Unlock()
	for _, j := range s.Jobs() {
		j.closeFiles()
	}
	return err
}

func (s *Service) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// janitor periodically reaps orphaned ranges in every running job, using
// heartbeat deadlines and (when a lockserver is configured) lease-key
// inspection.
func (s *Service) janitor() {
	defer s.wg.Done()
	tick := s.opts.LeaseTTL / 4
	if tick < 25*time.Millisecond {
		tick = 25 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			var held func(key, token string) (bool, bool)
			if s.opts.LockAddr != "" {
				held = s.lockHeld
			}
			for _, j := range s.Jobs() {
				j.reap(now, held)
			}
		}
	}
}

// lockHeld reports whether the lease key currently stores the token.
// ok=false means the lookup itself failed and nothing can be concluded.
func (s *Service) lockHeld(key, token string) (bool, bool) {
	s.lockMu.Lock()
	defer s.lockMu.Unlock()
	if s.lock == nil {
		c, err := lockserver.Dial(s.opts.LockAddr)
		if err != nil {
			return false, false
		}
		s.lock = c
	}
	val, found, err := s.lock.Get(key)
	if err != nil {
		_ = s.lock.Close()
		s.lock = nil
		return false, false
	}
	return found && val == token, true
}

// pickJob binds a hello to a job: the named one, or the oldest running job.
func (s *Service) pickJob(want string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if want != "" {
		j, ok := s.jobs[want]
		if !ok {
			return nil, fmt.Errorf("unknown job %q", want)
		}
		return j, nil
	}
	for _, id := range s.order {
		if s.jobs[id].Status().State == StateRunning {
			return s.jobs[id], nil
		}
	}
	return nil, nil // nothing running: caller sends drain
}

// serveConn runs one worker connection's request/response loop.
func (s *Service) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()

	// Unblock reads on shutdown.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-s.stop:
			conn.Close()
		case <-done:
		}
	}()

	fc := newFrameConn(conn)
	fail := func(code byte, msg string) { _ = fc.send(&frame{Type: msgError, Code: code, Err: msg}) }

	var cur *Job
	worker := ""
	counted := false
	defer func() {
		if cur != nil && worker != "" {
			cur.workerGone(worker)
		}
		if counted {
			s.tel.workersLive.Add(-1)
		}
	}()

	for {
		raw, err := fc.recvRaw()
		if err != nil {
			if errors.Is(err, errFrameSize) {
				fail(errCodeGeneric, err.Error())
			}
			return
		}
		s.tel.requests.Inc()
		msg, err := decodeFrame(raw)
		if err != nil {
			// A frame that does not decode is answered and the connection
			// dropped, which requeues whatever the worker held: nothing of a
			// half-understood commit is applied.
			code := errCodeGeneric
			if errors.Is(err, ErrProtocolVersion) {
				code = errCodeVersion
			}
			if raw[0] == msgCommit {
				s.tel.rejected.Inc()
			}
			fail(code, err.Error())
			return
		}
		var reply *frame
		switch msg.Type {
		case msgHello:
			if msg.Worker == "" {
				fail(errCodeGeneric, "hello requires a worker name")
				return
			}
			if cur != nil && worker != "" {
				cur.workerGone(worker) // rebinding releases old holds
			}
			worker = msg.Worker
			if !counted {
				counted = true
				s.tel.workersLive.Add(1)
			}
			cur, err = s.pickJob(msg.Job)
			switch {
			case err != nil:
				reply = &frame{Type: msgError, Err: err.Error()}
			case cur == nil:
				reply = &frame{Type: msgDrain, RetryMs: s.opts.LeaseTTL.Milliseconds() / 2}
			default:
				spec, err := json.Marshal(cur.spec)
				if err != nil {
					fail(errCodeGeneric, err.Error())
					return
				}
				reply = &frame{
					Type:       msgWelcome,
					Job:        cur.id,
					Spec:       string(spec),
					LockAddr:   s.opts.LockAddr,
					LeaseTTLMs: s.opts.LeaseTTL.Milliseconds(),
				}
			}
		case msgTelemetry:
			var rep telemetry.WorkerReport
			if err := json.Unmarshal([]byte(msg.Telemetry), &rep); err != nil {
				fail(errCodeGeneric, "malformed telemetry report: "+err.Error())
				return
			}
			if rep.Worker == "" {
				rep.Worker = worker
			}
			s.fed.Report(rep)
			reply = &frame{Type: msgOK}
		case msgLease, msgHeartbeat, msgCommit:
			if cur == nil {
				fail(errCodeGeneric, fmt.Sprintf("%q before hello", msg.Type))
				return
			}
			switch msg.Type {
			case msgLease:
				reply = cur.lease(worker)
			case msgHeartbeat:
				reply = &frame{Type: msgOK}
				if !cur.heartbeat(worker, msg.Range, msg.Epoch) {
					reply.Type = msgFenced
				}
			case msgCommit:
				// The reply to an accepted commit is the next grant: one
				// round trip per range.
				ok, err := cur.commit(worker, msg.Range, msg.Epoch, msg.Results)
				switch {
				case err != nil:
					reply = &frame{Type: msgError, Err: err.Error()}
				case !ok:
					reply = &frame{Type: msgFenced}
				default:
					reply = cur.lease(worker)
				}
			}
		default:
			fail(errCodeGeneric, fmt.Sprintf("unexpected frame type %q", msg.Type))
			return
		}
		if fc.send(reply) != nil {
			return
		}
	}
}
