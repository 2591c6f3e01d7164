package proxy

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/lockserver"
	"github.com/er-pi/erpi/internal/telemetry"
)

// DistPool owns one live worker's lock-server connections and mints
// epoch-fenced gate sessions for it. Each session namespaces its turn
// counter as <base>/sess/<worker>/<epoch>:turn, so a stale request from a
// cancelled session — one still on the wire, or applied after its client
// gave up on it — lands on a key no later session will ever read: the
// epoch counter only moves forward, and a fresh epoch's key starts absent
// (missing counter = 0), which is exactly the sequencer's reset state and
// why the owner of turn 0 takes it without a request. That fencing is also
// what makes the non-retried Advance safe — an ambiguous failure abandons
// the epoch, and any stray increment it left behind is invisible to the
// next one.
//
// Clients are per replica and lazily dialed, then reused across epochs: a
// blocking WAITGE parks its whole connection, so replicas must not share
// one (they would serialize behind each other's waits). So is each
// replica's sequencer, re-keyed by every session's Gate: a pool's sessions
// run one at a time, as a live worker's attempts do, each one's gates done
// before the next session mints its own.
type DistPool struct {
	addr   string
	prefix string // <base>/sess/<worker>/

	turnWait *telemetry.Histogram
	// hook is installed on every dialed client (fault injection).
	hook lockserver.FaultHook

	mu      sync.Mutex
	clients map[event.ReplicaID]*lockserver.Client
	seqs    map[event.ReplicaID]*lockserver.Sequencer
	epoch   int
	keyBuf  []byte // session key scratch
}

// NewDistPool builds a gate-session factory for one live worker against
// the lock server at addr. base roots the key namespace (e.g. "live").
// ttl was the lease of a per-turn mutex the gates no longer take and is
// unused: a session's one key, its turn counter, deliberately has no
// expiry — a counter that lapsed under a slow attempt would read 0 again
// and re-admit turn 0.
func NewDistPool(addr, base string, worker int, ttl time.Duration) *DistPool {
	return &DistPool{
		addr:    addr,
		prefix:  base + "/sess/" + strconv.Itoa(worker) + "/",
		clients: make(map[event.ReplicaID]*lockserver.Client),
		seqs:    make(map[event.ReplicaID]*lockserver.Sequencer),
	}
}

// SetTurnWaitMetrics attaches a histogram recording sequencer turn waits
// for every gate this pool mints. Call before Session.
func (p *DistPool) SetTurnWaitMetrics(h *telemetry.Histogram) {
	p.turnWait = h
}

// SetFaultHook installs a fault-injection hook on every client the pool
// has dialed or will dial. Call before Session for full coverage.
func (p *DistPool) SetFaultHook(h lockserver.FaultHook) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hook = h
	for _, c := range p.clients {
		c.SetFaultHook(h)
	}
}

// gateFor returns rep's sequencer on turnKey and its client, dialing
// both on rep's first gate.
func (p *DistPool) gateFor(rep event.ReplicaID, turnKey string) (*lockserver.Sequencer, *lockserver.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.seqs[rep]
	if !ok {
		c, err := lockserver.Dial(p.addr)
		if err != nil {
			return nil, nil, err
		}
		if p.hook != nil {
			c.SetFaultHook(p.hook)
		}
		p.clients[rep] = c
		g = lockserver.NewSequencer(c, turnKey, time.Millisecond)
		p.seqs[rep] = g
	}
	g.Rekey(turnKey)
	g.SetMetrics(p.turnWait)
	return g, p.clients[rep], nil
}

// Session mints the next epoch's gate session. Each call advances the
// worker's epoch, fencing off everything the previous session might still
// do.
func (p *DistPool) Session() *DistSession {
	p.mu.Lock()
	p.epoch++
	p.keyBuf = strconv.AppendInt(append(p.keyBuf[:0], p.prefix...), int64(p.epoch), 10)
	p.keyBuf = append(p.keyBuf, ":turn"...)
	turnKey := string(p.keyBuf)
	p.mu.Unlock()
	return &DistSession{pool: p, turnKey: turnKey}
}

// Close drops the pool's connections. Sessions minted earlier must be
// closed first.
func (p *DistPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for rep, c := range p.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		delete(p.clients, rep)
		delete(p.seqs, rep)
	}
	return first
}

// DistSession is one epoch's gate namespace: every replica's gate shares
// the session's turn counter, and Close deletes it.
type DistSession struct {
	pool    *DistPool
	turnKey string // <key>:turn

	mu     sync.Mutex
	client *lockserver.Client // any client a gate was minted on, for Close
}

// Key returns the session's lock-key namespace (for tests and logs).
func (s *DistSession) Key() string { return strings.TrimSuffix(s.turnKey, ":turn") }

// The lock server's turn sequencer is the distributed gate, giving replay
// ordering across OS processes — the paper's "distributed lock … with a
// shared key managed by a Redis server" (§4.3). The shared key is a
// counter and the counter is the lock: a ticket lock whose "now serving"
// value lives on the server. The replica whose turn the counter names
// holds it, nobody else advances it, and Advance — one non-retried
// request that adds the run's length and parks the holder until its own
// next run — hands it on.
var _ TurnGate = (*lockserver.Sequencer)(nil)

// Gate builds the session gate for one replica. Replicas of a session
// share the counter but not connections.
func (s *DistSession) Gate(rep event.ReplicaID) (TurnGate, error) {
	g, c, err := s.pool.gateFor(rep, s.turnKey)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.client = c
	s.mu.Unlock()
	return g, nil
}

// Close deletes the session's turn counter, best-effort. Later epochs
// never read this namespace, so Close is hygiene, not correctness — but
// without it every attempt would leave a key on the lock server.
func (s *DistSession) Close() error {
	s.mu.Lock()
	c := s.client
	s.client = nil
	s.mu.Unlock()
	if c != nil {
		_, _ = c.Del(s.turnKey)
	}
	return nil
}
