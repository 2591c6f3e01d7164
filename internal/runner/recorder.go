package runner

import (
	"fmt"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/replica"
)

// Recorder captures a workload as an event log (paper §4.1: "ER-π
// intercepts which library functions have been invoked in the segment,
// extracting them as events"): each call is validated, appended as an
// event and applied to the cluster. The workload executes for real against
// the cluster, so the recording run doubles as the scenario's sanity run.
// Log stamps the events and builds the log (event.NewLog).
type Recorder struct {
	cluster *replica.Cluster
	events  []event.Event
	err     error
}

// NewRecorder starts recording against a cluster.
func NewRecorder(cluster *replica.Cluster) *Recorder {
	return &Recorder{cluster: cluster}
}

// Err returns the first error encountered by any recording call.
func (r *Recorder) Err() error { return r.err }

func (r *Recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// record validates ev and appends it, numbered as the log will number it
// so that a validation error names it, then looks up the node it executes
// at. An invalid event is not appended.
func (r *Recorder) record(ev event.Event) (*replica.Node, error) {
	ev.ID = event.ID(len(r.events))
	if err := ev.Validate(); err != nil {
		return nil, err
	}
	r.events = append(r.events, ev)
	return r.cluster.Node(ev.Replica)
}

// Update performs and records a local RDL update, returning its result.
// Failed ops (replica.ErrFailedOp) are recorded like any other event.
func (r *Recorder) Update(rep event.ReplicaID, op string, args ...string) string {
	node, err := r.record(event.Event{Kind: event.Update, Replica: rep, Op: op, Args: args})
	var out string
	if err == nil {
		out, err = node.State.Apply(replica.Op{Name: op, Args: args})
	}
	if err != nil && err != replica.ErrFailedOp { // constraint rejections are legitimate recordings
		r.fail(fmt.Errorf("runner: record update %s@%s: %w", op, rep, err))
	}
	return out
}

// Observe performs and records an observable read, returning the event ID
// (for anchoring assertions) and the observed value.
func (r *Recorder) Observe(rep event.ReplicaID, op string, args ...string) (event.ID, string) {
	id := event.ID(len(r.events))
	node, err := r.record(event.Event{Kind: event.Observe, Replica: rep, Op: op, Args: args})
	var out string
	if err == nil {
		out, err = node.State.Apply(replica.Op{Name: op, Args: args})
	}
	if err != nil {
		r.fail(fmt.Errorf("runner: record observe %s@%s: %w", op, rep, err))
	}
	return id, out
}

// SyncPair performs and records an explicit synchronization exchange: a
// sync_req at the sender followed by the exec_sync at the receiver. Event
// Grouping (Algorithm 1) pairs the two automatically.
func (r *Recorder) SyncPair(from, to event.ReplicaID) {
	sender, err := r.record(event.Event{Kind: event.SyncSend, Replica: from, From: from, To: to})
	var payload []byte
	if err == nil {
		payload, err = sender.State.SyncPayload()
	}
	if err != nil {
		r.fail(fmt.Errorf("runner: record sync_req %s->%s: %w", from, to, err))
		return
	}
	receiver, err := r.record(event.Event{Kind: event.SyncExec, Replica: to, From: from, To: to})
	if err == nil {
		err = receiver.State.ApplySync(payload)
	}
	if err != nil {
		r.fail(fmt.Errorf("runner: record exec_sync %s->%s: %w", from, to, err))
	}
}

// Sync performs and records a standalone synchronization event at the
// receiver (the motivating example's sync(ev) events): during replay its
// payload is captured from the sender at execution time. Returns the event
// ID.
func (r *Recorder) Sync(from, to event.ReplicaID) event.ID {
	id := event.ID(len(r.events))
	receiver, err := r.record(event.Event{Kind: event.SyncExec, Replica: to, From: from, To: to})
	var sender *replica.Node
	if err == nil {
		sender, err = r.cluster.Node(from)
	}
	var payload []byte
	if err == nil {
		payload, err = sender.State.SyncPayload()
	}
	if err == nil {
		err = receiver.State.ApplySync(payload)
	}
	if err != nil {
		r.fail(fmt.Errorf("runner: record sync %s->%s: %w", from, to, err))
	}
	return id
}

// Log finalizes recording and returns the event log.
func (r *Recorder) Log() (*event.Log, error) {
	if r.err != nil {
		return nil, r.err
	}
	if len(r.events) == 0 {
		return nil, fmt.Errorf("runner: nothing recorded")
	}
	return event.NewLog(r.events)
}
