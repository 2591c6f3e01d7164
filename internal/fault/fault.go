// Package fault is ER-π's deterministic fault-injection subsystem. The
// paper's evaluation ran on a physical three-machine testbed where
// replicas and the network could genuinely fail mid-replay; this package
// reproduces those failure modes as a seeded, reproducible Schedule keyed
// to replay progress, so that the engine's graceful degradation is itself
// testable and every chaotic run can be replayed bit-for-bit.
//
// A Schedule declares faults that fire at (exploration index, event
// position) coordinates:
//
//   - CrashReplica: the replica loses all volatile state accumulated since
//     the interleaving began (restored from its durable checkpoint through
//     the cluster's Checkpoint/Reset machinery) and optionally stays down
//     for a window of event positions, during which its events fail with
//     ErrReplicaDown.
//   - Partition: the link between two replicas is severed for a window;
//     synchronizations across it are dropped.
//   - TruncatePayload: a sync payload is cut to KeepBytes bytes in flight,
//     modelling a torn message.
//
// The executor consults one Injector per executor: Begin at each
// interleaving, At before each event, Finish afterwards. Arming — including
// probabilistic arming — is a pure function of (schedule seed, exploration
// index), never of the order in which interleavings are begun, so the
// parallel exploration engine can hand every worker its own Injector built
// from the same Schedule and the injected faults stay bit-identical to a
// sequential run. With an empty Schedule every query is a no-op, so a
// fault-free schedule is observationally identical to running without an
// injector (a soundness property pinned by the runner's tests).
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/telemetry"
)

// ErrReplicaDown marks an event that could not execute because its replica
// (or, for a synchronization, its sender) was crashed at that point of the
// schedule.
var ErrReplicaDown = errors.New("fault: replica down")

// Kind classifies a fault.
type Kind int

// Fault kinds.
const (
	// CrashReplica crashes Replica at position At: state since the
	// interleaving's checkpoint is lost, and the replica stays down for
	// Duration further positions before restarting.
	CrashReplica Kind = iota + 1
	// 2 is reserved: schedule JSON stores kind as a number.
	_
	// Partition severs the A–B link for positions [At, At+Duration].
	Partition
	// TruncatePayload cuts the sync payload executed at position At down
	// to KeepBytes bytes.
	TruncatePayload
)

var kindNames = map[Kind]string{
	CrashReplica:    "crash",
	Partition:       "partition",
	TruncatePayload: "truncate",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault declares one fault keyed to replay progress.
type Fault struct {
	// Kind selects the failure mode.
	Kind Kind `json:"kind"`
	// Interleaving is the 1-based exploration index the fault arms in;
	// zero arms it in every interleaving.
	Interleaving int `json:"interleaving,omitempty"`
	// At is the 0-based event position within the interleaving at which
	// the fault fires.
	At int `json:"at"`
	// Duration extends the fault over [At, At+Duration] event positions.
	// For CrashReplica, zero means crash-and-restart-immediately: the
	// state rollback happens but no events are lost to downtime.
	Duration int `json:"duration,omitempty"`
	// Replica is the CrashReplica target.
	Replica event.ReplicaID `json:"replica,omitempty"`
	// A and B name the Partition link.
	A event.ReplicaID `json:"a,omitempty"`
	B event.ReplicaID `json:"b,omitempty"`
	// KeepBytes is the TruncatePayload surviving prefix length.
	KeepBytes int `json:"keep_bytes,omitempty"`
	// Prob arms the fault per interleaving with this probability, rolled
	// from the schedule's seeded generator; zero or >= 1 arms it always.
	Prob float64 `json:"prob,omitempty"`
}

func (f Fault) String() string {
	switch f.Kind {
	case CrashReplica:
		return fmt.Sprintf("crash(%s)@%d+%d", f.Replica, f.At, f.Duration)
	case Partition:
		return fmt.Sprintf("partition(%s,%s)@%d+%d", f.A, f.B, f.At, f.Duration)
	case TruncatePayload:
		return fmt.Sprintf("truncate(%d)@%d", f.KeepBytes, f.At)
	default:
		return fmt.Sprintf("fault(%d)", int(f.Kind))
	}
}

// Validate rejects malformed faults.
func (f Fault) Validate() error {
	switch {
	case f.Kind == CrashReplica && f.Replica == "":
		return errors.New("fault: crash needs a replica")
	case f.Kind == Partition && (f.A == "" || f.B == "" || f.A == f.B):
		return errors.New("fault: partition needs two distinct replicas")
	case f.Kind == TruncatePayload && f.KeepBytes < 0:
		return errors.New("fault: negative truncation length")
	case f.At < 0 || f.Duration < 0 || f.Interleaving < 0:
		return errors.New("fault: negative schedule coordinate")
	case kindNames[f.Kind] == "":
		return fmt.Errorf("fault: unknown kind %d", int(f.Kind))
	}
	return nil
}

// Schedule is a reproducible set of faults: equal schedules injected into
// equal runs produce equal behaviour.
type Schedule struct {
	// Seed drives probabilistic arming (Fault.Prob).
	Seed int64 `json:"seed"`
	// Faults are the declared faults.
	Faults []Fault `json:"faults"`
}

// Validate rejects schedules containing malformed faults.
func (s Schedule) Validate() error {
	for i, f := range s.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// ActionKind classifies an injector action the executor must apply.
type ActionKind int

// Action kinds.
const (
	// ActionCrash asks the executor to roll Replica back to its durable
	// checkpoint.
	ActionCrash ActionKind = iota + 1
	// ActionRestart reports a crashed replica coming back (no executor
	// work: the rollback happened at crash time).
	ActionRestart
)

// Action is one state change the executor applies at an event position.
type Action struct {
	Kind    ActionKind
	Replica event.ReplicaID
}

type linkKey struct{ a, b event.ReplicaID }

func link(a, b event.ReplicaID) linkKey {
	if b < a {
		a, b = b, a
	}
	return linkKey{a: a, b: b}
}

// Injector evaluates a Schedule against replay progress. Safe for
// concurrent use (the live replay path queries it from one goroutine per
// replica). The zero-cost path matters: with no armed faults every query
// returns immediately.
type Injector struct {
	mu    sync.Mutex
	sched Schedule

	index int    // current 1-based interleaving index
	pos   int    // last position handed to At
	armed []bool // per schedule fault, armed for the current interleaving

	downUntil map[event.ReplicaID]int // position at which a crashed replica restarts

	// Telemetry counters (nil-safe; strictly observational — incrementing
	// them must never influence arming or firing decisions).
	ctrArmed *telemetry.Counter // faults armed across interleavings
	ctrFired *telemetry.Counter // fault effects applied
}

// SetCounters attaches telemetry counters for faults armed per
// interleaving and fault effects actually applied (crashes and payload
// truncations). Nil counters (or never calling SetCounters) keep the
// injector unobserved.
func (in *Injector) SetCounters(armed, fired *telemetry.Counter) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ctrArmed = armed
	in.ctrFired = fired
}

// NewInjector builds an injector over a schedule. An invalid schedule
// returns an error; an empty one yields a no-op injector.
func NewInjector(sched Schedule) (*Injector, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	faults := make([]Fault, len(sched.Faults))
	copy(faults, sched.Faults)
	sched.Faults = faults
	return &Injector{
		sched:     sched,
		armed:     make([]bool, len(sched.Faults)),
		downUntil: make(map[event.ReplicaID]int),
	}, nil
}

// armSeed mixes the schedule seed with an exploration index (splitmix64
// finalizer) into the seed of that interleaving's arming stream. Keying the
// stream by index — rather than drawing from one generator in Begin order —
// makes arming independent of exploration order and of how many injector
// clones exist, which is what keeps results bit-identical at every worker
// count.
func armSeed(seed int64, index int) int64 {
	x := uint64(seed) ^ uint64(index)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Begin arms the schedule for one interleaving (1-based exploration index).
// Probabilistic faults are rolled from a stream keyed by (schedule seed,
// index): arming depends only on the interleaving's index, so injector
// clones on parallel workers arm identically and retries of the same
// interleaving re-roll the same values.
func (in *Injector) Begin(index int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.index = index
	in.pos = -1
	for id := range in.downUntil {
		delete(in.downUntil, id)
	}
	var rng *rand.Rand
	for i, f := range in.sched.Faults {
		armed := f.Interleaving == 0 || f.Interleaving == index
		if armed && f.Prob > 0 && f.Prob < 1 {
			if rng == nil {
				rng = rand.New(rand.NewSource(armSeed(in.sched.Seed, index)))
			}
			armed = rng.Float64() < f.Prob
		}
		in.armed[i] = armed
		if armed {
			in.ctrArmed.Inc()
		}
	}
}

// AnyArmed reports whether any fault in the schedule is armed for the
// current interleaving (i.e. since the last Begin). The prefix cache
// uses this to bypass snapshot reuse entirely on fault-carrying
// interleavings: a crash or truncation mid-run makes cached prefix
// states unrepresentative, so those interleavings replay from a clean
// genesis checkpoint.
func (in *Injector) AnyArmed() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, a := range in.armed {
		if a {
			return true
		}
	}
	return false
}

// At advances the injector to event position pos of the current
// interleaving and returns the actions the executor must apply before
// executing that event.
func (in *Injector) At(pos int) []Action {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.pos = pos
	var actions []Action
	for rep, until := range in.downUntil {
		if pos >= until {
			delete(in.downUntil, rep)
			actions = append(actions, Action{Kind: ActionRestart, Replica: rep})
		}
	}
	for i, f := range in.sched.Faults {
		if !in.armed[i] || f.Kind != CrashReplica || pos != f.At {
			continue
		}
		actions = append(actions, Action{Kind: ActionCrash, Replica: f.Replica})
		in.ctrFired.Inc()
		if f.Duration > 0 {
			in.downUntil[f.Replica] = f.At + f.Duration + 1
		}
	}
	return actions
}

// Finish closes the current interleaving: crash downtime windows still
// open are dropped, so the next interleaving starts clean.
func (in *Injector) Finish() {
	in.mu.Lock()
	defer in.mu.Unlock()
	for id := range in.downUntil {
		delete(in.downUntil, id)
	}
}

// ReplicaDown reports whether rep is inside a crash downtime window at the
// current position.
func (in *Injector) ReplicaDown(rep event.ReplicaID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	until, ok := in.downUntil[rep]
	return ok && in.pos < until
}

// Partitioned reports whether the a–b link is severed at the current
// position.
func (in *Injector) Partitioned(a, b event.ReplicaID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	want := link(a, b)
	for i, f := range in.sched.Faults {
		if !in.armed[i] || f.Kind != Partition {
			continue
		}
		if link(f.A, f.B) == want && in.pos >= f.At && in.pos <= f.At+f.Duration {
			return true
		}
	}
	return false
}

// Payload applies any armed truncation at position pos to a sync payload,
// returning the (possibly shortened) bytes. The input is never mutated.
func (in *Injector) Payload(pos int, payload []byte) []byte {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.sched.Faults {
		if !in.armed[i] || f.Kind != TruncatePayload || f.At != pos {
			continue
		}
		if f.KeepBytes < len(payload) {
			payload = payload[:f.KeepBytes:f.KeepBytes]
			in.ctrFired.Inc()
		}
	}
	return payload
}
