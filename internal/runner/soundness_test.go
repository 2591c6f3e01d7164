package runner

import (
	"reflect"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
)

// TestPruningSemanticSoundness is the semantic half of pruning soundness.
// Replica-specific pruning (Algorithm 2) is scoped by design: it merges
// interleavings that are indistinguishable AT THE TESTED REPLICA ("events
// executed at other replicas without impacting the tested replica can be
// grouped"). So every interleaving the pruned explorer drops on the
// motivating example must leave the MUNICIPALITY in exactly the state its
// canonical representative does — while the other replicas' states may
// legitimately differ, which is why the pruning must only be enabled for
// the replica under test.
func TestPruningSemanticSoundness(t *testing.T) {
	s := townReportScenario(t)

	surviving := make(map[string]bool)
	ex, err := prune.NewExplorer(s.Log, s.Pruning)
	if err != nil {
		t.Fatal(err)
	}
	for {
		il, ok := ex.Next()
		if !ok {
			break
		}
		surviving[il.Key()] = true
	}
	if len(surviving) != 19 {
		t.Fatalf("survivors = %d, want 19", len(surviving))
	}

	// The merged class: the transmission (event 6) first, followed by the
	// three grouped pairs in any order. Canonical representative: pairs
	// ascending.
	units := [][]event.ID{{0, 1}, {2, 3}, {4, 5}}
	canonical := interleave.Interleaving{6, 0, 1, 2, 3, 4, 5}
	if !surviving[canonical.Key()] {
		t.Fatal("canonical representative missing from survivors")
	}
	canonOutcome, err := ExecuteOnce(s, canonical)
	if err != nil {
		t.Fatal(err)
	}

	dropped := 0
	othersDiffer := false
	for _, order := range [][]int{
		{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	} {
		il := interleave.Interleaving{6}
		for _, u := range order {
			il = append(il, units[u]...)
		}
		if surviving[il.Key()] {
			t.Fatalf("interleaving %s should have been merged away", il.Key())
		}
		dropped++
		o, err := ExecuteOnce(s, il)
		if err != nil {
			t.Fatal(err)
		}
		if o.Fingerprints["M"] != canonOutcome.Fingerprints["M"] {
			t.Fatalf("dropped interleaving %s leaves the tested replica in %q, representative leaves %q",
				il.Key(), o.Fingerprints["M"], canonOutcome.Fingerprints["M"])
		}
		if !reflect.DeepEqual(o.Fingerprints, canonOutcome.Fingerprints) {
			othersDiffer = true
		}
	}
	if dropped != 24-19 {
		t.Fatalf("checked %d dropped interleavings, want 5", dropped)
	}
	// The scoping is real: at least one merged member differs at the OTHER
	// replicas (e.g. B's remove fails when it runs before B learned of the
	// issue), which is exactly why Algorithm 2 applies only to the replica
	// under test.
	if !othersDiffer {
		t.Fatal("expected some merged interleaving to differ at non-tested replicas")
	}
}
