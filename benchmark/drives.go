package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/lockserver"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
)

// Micro-drives: single layers exercised on their own, on the same
// scenarios the workloads run, through their public calls.

// driveReps is how often a micro-drive repeats its sample.
const driveReps = 3

// subjectCost is what replaying interleavings straight through
// replica.State costs, in mean ns per call.
type subjectCost struct {
	eventNS    float64 // Apply of one Update/Observe
	syncNS     float64 // one delivered sync: SyncPayload + ApplySync
	snapshotNS float64 // State.Snapshot after an event
	finalizeNS float64 // Scenario.Finalize, once per interleaving
	applies    int     // local ops per interleaving
	syncs      int     // delivered syncs per interleaving
}

// subjectCosts replays a sample of the given interleavings (every n-th of
// what the stepper explored, so event and finalize costs are those of the
// whole exploration, not of the recorded order or of its first corner)
// with none of the executor around them. A repetition replays the sample
// twice: once timing the events with nothing between them, once timing a
// Snapshot after every event — a snapshot between two events would
// otherwise warm or pollute what the second one touches.
func subjectCosts(s runner.Scenario, ils []interleave.Interleaving) (subjectCost, error) {
	ils = strided(ils, 200)
	sendFor := make(map[event.ID]event.ID)
	for _, pair := range s.Log.SyncPairs() {
		sendFor[pair[1]] = pair[0]
	}
	cluster, err := s.NewCluster()
	if err != nil {
		return subjectCost{}, err
	}
	if err := cluster.Checkpoint(); err != nil {
		return subjectCost{}, err
	}
	var evT, syT, snT, fiT time.Duration
	var evN, syN, snN int
	replay := func(il interleave.Interleaving, snapshots bool) error {
		if err := cluster.Reset(); err != nil {
			return err
		}
		pending := make(map[event.ID][]byte)
		for _, id := range il {
			ev := s.Log.Event(id)
			node, err := cluster.Node(ev.Replica)
			if err != nil {
				return err
			}
			start := time.Now()
			switch ev.Kind {
			case event.Update, event.Observe:
				_, err = node.State.Apply(replica.Op{Name: ev.Op, Args: ev.Args})
				if !snapshots {
					evT += time.Since(start)
					evN++
				}
			case event.SyncSend:
				pending[id], err = node.State.SyncPayload()
				if !snapshots {
					syT += time.Since(start)
				}
			case event.SyncExec:
				sendID, paired := sendFor[id]
				payload, captured := pending[sendID]
				if !paired || !captured {
					// Standalone sync: the payload is the sender's state now.
					sender, nerr := cluster.Node(ev.From)
					if nerr != nil {
						return nerr
					}
					payload, err = sender.State.SyncPayload()
				}
				if err == nil {
					err = node.State.ApplySync(payload)
				}
				if !snapshots {
					syT += time.Since(start)
					syN++
				}
			}
			if err != nil && !errors.Is(err, replica.ErrFailedOp) {
				return fmt.Errorf("%s: replaying %s: %w", s.Name, ev, err)
			}
			if snapshots {
				start = time.Now()
				if _, err := node.State.Snapshot(); err != nil {
					return err
				}
				snT += time.Since(start)
				snN++
			}
		}
		if s.Finalize != nil && !snapshots {
			start := time.Now()
			if err := s.Finalize(cluster); err != nil {
				return err
			}
			fiT += time.Since(start)
		}
		return nil
	}
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	// The sample takes 10-100 ms to replay, short enough for one descheduling
	// to move a mean by a third: replay it driveReps times and keep each
	// cost's median.
	var ev, sy, sn, fi []float64
	var out subjectCost
	for rep := 0; rep < driveReps; rep++ {
		evT, syT, snT, fiT, evN, syN, snN = 0, 0, 0, 0, 0, 0, 0
		for _, snapshots := range []bool{false, true} {
			for _, il := range ils {
				if err := replay(il, snapshots); err != nil {
					return subjectCost{}, err
				}
			}
		}
		ev, sy = append(ev, per(evT, evN)), append(sy, per(syT, syN))
		sn, fi = append(sn, per(snT, snN)), append(fi, per(fiT, len(ils)))
		out.applies, out.syncs = evN/len(ils), syN/len(ils)
	}
	out.eventNS, out.syncNS, out.snapshotNS, out.finalizeNS = median(ev), median(sy), median(sn), median(fi)
	return out, nil
}

// strided returns at most n of ils, evenly spaced.
func strided(ils []interleave.Interleaving, n int) []interleave.Interleaving {
	if len(ils) <= n {
		return ils
	}
	out := make([]interleave.Interleaving, n)
	for i := range out {
		out[i] = ils[i*len(ils)/n]
	}
	return out
}

// clusterCost is replica.Cluster's four hot calls, in mean ns per call.
type clusterCost struct {
	resetNS, snapshotNS, restoreNS, fingerprintsNS float64
}

// clusterCosts times, after dirtying one replica each time round:
// CanonicalSnapshot + Hash, Fingerprints, RestoreSnapshot, Reset.
func clusterCosts(s runner.Scenario, reps int) (clusterCost, error) {
	cluster, err := s.NewCluster()
	if err != nil {
		return clusterCost{}, err
	}
	if err := cluster.Checkpoint(); err != nil {
		return clusterCost{}, err
	}
	var dirty event.Event
	for _, id := range s.Log.IDs() {
		if ev := s.Log.Event(id); ev.Kind == event.Update {
			dirty = ev
			break
		}
	}
	node, err := cluster.Node(dirty.Replica)
	if err != nil {
		return clusterCost{}, fmt.Errorf("%s: no update event to dirty a replica with: %w", s.Name, err)
	}
	var rsT, snT, rtT, fpT time.Duration
	for rep := 0; rep < reps; rep++ {
		if _, err := node.State.Apply(replica.Op{Name: dirty.Op, Args: dirty.Args}); err != nil && !errors.Is(err, replica.ErrFailedOp) {
			return clusterCost{}, err
		}
		start := time.Now()
		snap, err := cluster.CanonicalSnapshot()
		if err != nil {
			return clusterCost{}, err
		}
		_ = snap.Hash()
		snT += time.Since(start)
		start = time.Now()
		_ = cluster.Fingerprints()
		fpT += time.Since(start)
		start = time.Now()
		if err := cluster.RestoreSnapshot(snap); err != nil {
			return clusterCost{}, err
		}
		rtT += time.Since(start)
		start = time.Now()
		if err := cluster.Reset(); err != nil {
			return clusterCost{}, err
		}
		rsT += time.Since(start)
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(reps) }
	return clusterCost{resetNS: per(rsT), snapshotNS: per(snT), restoreNS: per(rtT), fingerprintsNS: per(fpT)}, nil
}

// journalAppendNS is the cost of one checkpoint.Dir.AppendExplored under
// the default group-commit policy, final Flush included.
func journalAppendNS(ils []interleave.Interleaving) (float64, error) {
	dir, err := os.MkdirTemp("", "erpi-benchmark-journal-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	d, err := checkpoint.Open(dir)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, il := range ils {
		if err := d.AppendExplored(il); err != nil {
			d.Close()
			return 0, err
		}
	}
	if err := d.Flush(); err != nil {
		d.Close()
		return 0, err
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(len(ils))
	return ns, d.Close()
}

// pingCosts times n lock-server round trips on one connection.
func pingCosts(addr string, n int) (p50, p99 float64, err error) {
	c, err := lockserver.Dial(addr)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := c.Ping(); err != nil {
			return 0, 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return quantile(us, 0.5), quantile(us, 0.99), nil
}
