// Package coordinator is the distributed exploration service: it promotes
// the in-process driver (internal/runner/pool.go) into a network service
// that leases contiguous interleaving ranges to workers — local goroutines
// or remote processes — over a JSON-lines TCP protocol.
//
// The division of labor is the pool's: the coordinator owns enumeration
// (one explorer), dedup, the checkpoint journal, and in-order aggregation
// of results through the same runner.Ledger; workers own only execution. Ranges carry their
// interleavings inline, so workers never enumerate and the explored set is
// byte-identical to a sequential run no matter how many workers serve it,
// how they crash, or how often ranges are requeued.
//
// Crash tolerance rests on two mechanisms (DESIGN.md §4.10):
//
//   - Liveness: each granted range has a heartbeat deadline on the
//     coordinator and, optionally, an auto-renewed lockserver mutex held
//     by the worker. A silent worker (or an expired lease) marks the
//     range orphaned and requeues it for another worker.
//   - Safety: each grant carries a fencing epoch, bumped on every
//     (re)lease. Commits and heartbeats quoting a stale epoch are
//     rejected, so a zombie worker that wakes up after its range was
//     requeued can never double-commit results.
package coordinator

import (
	"strconv"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Protocol message types. The worker drives a strict request/response
// lockstep on its connection: every worker→coordinator message gets
// exactly one reply.
const (
	// worker → coordinator
	msgHello     = "hello"     // bind to a job (reply: hello | drain | done | error)
	msgLease     = "lease"     // request a range (reply: range | drain | done | error)
	msgHeartbeat = "heartbeat" // extend a held range's deadline (reply: ok | fenced | error)
	msgCommit    = "commit"    // deliver a range's results (reply: ok | fenced | error)
	msgTelemetry = "telemetry" // report metrics/progress + span delta (reply: ok | error)

	// coordinator → worker
	msgRange  = "range"  // a granted range with its interleavings inline
	msgDrain  = "drain"  // nothing leasable right now; retry after RetryMs
	msgDone   = "done"   // the job is finished (or cancelled); stop serving it
	msgOK     = "ok"     // heartbeat/commit accepted
	msgFenced = "fenced" // stale epoch: the range was requeued; discard local work
	msgError  = "error"  // protocol violation or server-side failure
)

// wireMsg is the single envelope both sides exchange, one JSON object per
// line. Fields are populated per Type; zero fields are omitted.
type wireMsg struct {
	Type string `json:"type"`

	// hello (worker→coordinator): the worker's unique name, and optionally
	// a specific job id to serve ("" = any running job).
	Worker string `json:"worker,omitempty"`
	Job    string `json:"job,omitempty"`

	// hello (coordinator→worker): everything the worker needs to build an
	// identical execution environment.
	Spec       *JobSpec `json:"spec,omitempty"`
	LockAddr   string   `json:"lock_addr,omitempty"`
	LeaseTTLMs int64    `json:"lease_ttl_ms,omitempty"`

	// range / heartbeat / commit: range identity plus the fencing epoch
	// the grant carried.
	Range int `json:"range,omitempty"`
	Epoch int `json:"epoch,omitempty"`

	// range (coordinator→worker): the global index of the first
	// interleaving and the concrete event orders to execute.
	Start         int     `json:"start,omitempty"`
	Interleavings [][]int `json:"interleavings,omitempty"`

	// commit (worker→coordinator): one result per interleaving, in range
	// order.
	Results []wireResult `json:"results,omitempty"`

	// telemetry (worker→coordinator): the worker's cumulative metrics and
	// progress plus its span delta, folded into the coordinator's fleet
	// view. Strictly additive to the protocol: workers that never send it
	// and coordinators that ignore it interoperate unchanged.
	Telemetry *telemetry.WorkerReport `json:"telemetry,omitempty"`

	// drain: how long the worker should wait before retrying.
	RetryMs int64 `json:"retry_ms,omitempty"`

	// error: human-readable cause.
	Err string `json:"error,omitempty"`
}

// wireResult is one interleaving's execution result. Error != "" marks a
// quarantined interleaving (execution kept failing after retries); the
// coordinator counts it and continues, exactly like the in-process engines.
// Subsumed marks an interleaving the worker's subsumption table pruned: no
// outcome and no error, but the index is consumed and journaled so the cap,
// dedup, and resume accounting match a non-pruning run.
type wireResult struct {
	Index    int          `json:"index"`
	Key      string       `json:"key"`
	Outcome  *wireOutcome `json:"outcome,omitempty"`
	Attempts int          `json:"attempts,omitempty"`
	Error    string       `json:"error,omitempty"`
	Subsumed bool         `json:"subsumed,omitempty"`
}

// wireOutcome is runner.Outcome flattened for the wire (string-keyed maps,
// plain int event IDs).
type wireOutcome struct {
	Fingerprints map[string]string `json:"fingerprints,omitempty"`
	Observations map[string]string `json:"observations,omitempty"`
	FailedOps    []int             `json:"failed_ops,omitempty"`
	DroppedSyncs []int             `json:"dropped_syncs,omitempty"`
	Converged    bool              `json:"converged"`
}

func toWireOutcome(o *runner.Outcome) *wireOutcome {
	w := &wireOutcome{Converged: o.Converged}
	if len(o.Fingerprints) > 0 {
		w.Fingerprints = make(map[string]string, len(o.Fingerprints))
		for r, fp := range o.Fingerprints {
			w.Fingerprints[string(r)] = fp
		}
	}
	if len(o.Observations) > 0 {
		w.Observations = make(map[string]string, len(o.Observations))
		for id, v := range o.Observations {
			w.Observations[strconv.Itoa(int(id))] = v
		}
	}
	for _, id := range o.FailedOps {
		w.FailedOps = append(w.FailedOps, int(id))
	}
	for _, id := range o.DroppedSyncs {
		w.DroppedSyncs = append(w.DroppedSyncs, int(id))
	}
	return w
}

// outcome rebuilds the runner.Outcome the coordinator's assertions and
// digest consume. Index and interleaving come from the coordinator's own
// ledger, never from the wire, so a confused worker cannot corrupt them.
func (w *wireOutcome) outcome(index int, il interleave.Interleaving) *runner.Outcome {
	o := &runner.Outcome{
		Index:        index,
		Interleaving: il,
		Converged:    w.Converged,
	}
	if len(w.Fingerprints) > 0 {
		o.Fingerprints = make(map[event.ReplicaID]string, len(w.Fingerprints))
		for r, fp := range w.Fingerprints {
			o.Fingerprints[event.ReplicaID(r)] = fp
		}
	}
	if len(w.Observations) > 0 {
		o.Observations = make(map[event.ID]string, len(w.Observations))
		for k, v := range w.Observations {
			id, err := strconv.Atoi(k)
			if err != nil {
				continue
			}
			o.Observations[event.ID(id)] = v
		}
	}
	for _, id := range w.FailedOps {
		o.FailedOps = append(o.FailedOps, event.ID(id))
	}
	for _, id := range w.DroppedSyncs {
		o.DroppedSyncs = append(o.DroppedSyncs, event.ID(id))
	}
	return o
}

func ilsToWire(ils []interleave.Interleaving) [][]int {
	out := make([][]int, len(ils))
	for i, il := range ils {
		ids := make([]int, len(il))
		for j, id := range il {
			ids[j] = int(id)
		}
		out[i] = ids
	}
	return out
}

func ilsFromWire(raw [][]int) []interleave.Interleaving {
	out := make([]interleave.Interleaving, len(raw))
	for i, ids := range raw {
		il := make(interleave.Interleaving, len(ids))
		for j, id := range ids {
			il[j] = event.ID(id)
		}
		out[i] = il
	}
	return out
}
