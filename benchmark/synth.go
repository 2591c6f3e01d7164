package main

import (
	"fmt"
	"math/rand"

	"github.com/er-pi/erpi/internal/check"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/subjects/crdts"
)

// synthRowName is the one row whose input depends on -seed.
const synthRowName = "synth-crdts"

var synthReplicas = []event.ReplicaID{"A", "B", "C"}

func synthCluster() (*replica.Cluster, error) {
	states := make(map[event.ReplicaID]replica.State, len(synthReplicas))
	for _, r := range synthReplicas {
		states[r] = crdts.New(string(r), crdts.Flags{})
	}
	return replica.NewCluster(states), nil
}

// synthScenario records a 3-replica, 12-event workload over the crdts
// subject: seven updates over the four data types, four standalone syncs
// and one read. The seed picks every argument — tags, counter deltas, list
// values, the to-do title — and nothing else: who does what, in which
// order, is fixed, and all arguments of one kind have the same length. So
// every seed explores the same shape at the same cost (a spread across
// seeds is then run-to-run noise, not input variance) while every state,
// signature and reference digest differs from seed to seed.
func synthScenario(seed int64) (runner.Scenario, []runner.Assertion, error) {
	rng := rand.New(rand.NewSource(seed))
	two := func(format string, n int) (string, string) {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		return fmt.Sprintf(format, a), fmt.Sprintf(format, b)
	}
	tag1, tag2 := two("tag%03d", 1000)
	val1, val2 := two("v%03d", 1000)
	inc1, inc2 := fmt.Sprint(1+rng.Intn(4)), fmt.Sprint(1+rng.Intn(4))
	title := fmt.Sprintf("todo%04d", rng.Intn(10000))

	cluster, err := synthCluster()
	if err != nil {
		return runner.Scenario{}, nil, err
	}
	rec := runner.NewRecorder(cluster)
	rec.Observe("A", "list.read")
	rec.Update("B", "tag.add", tag1)
	rec.Update("A", "counter.inc", inc1)
	rec.Update("C", "list.insert", "0", val1)
	rec.Sync("B", "A")
	rec.Update("A", "tag.add", tag2)
	rec.Update("B", "counter.inc", inc2)
	rec.Sync("C", "B")
	rec.Update("C", "list.insert", "0", val2)
	rec.Update("A", "todo.create", title)
	rec.Sync("A", "C")
	rec.Sync("B", "C")
	log, err := rec.Log()
	if err != nil {
		return runner.Scenario{}, nil, fmt.Errorf("synth-crdts seed %d: %w", seed, err)
	}
	s := runner.Scenario{
		Name:       synthRowName,
		Log:        log,
		NewCluster: synthCluster,
		Pruning:    prune.Config{TestedReplicas: []event.ReplicaID{"A"}},
	}
	return s, []runner.Assertion{check.NoFailedOps{}}, nil
}
