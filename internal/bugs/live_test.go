package bugs

import (
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/proxy"
	"github.com/er-pi/erpi/internal/runner"
)

// TestTriggerLiveReplay replays every benchmark's trigger interleaving
// through the live path — one goroutine per replica, each run of calls
// held by proxy.RunTurns until its turn — and requires the reported
// manifestation to reproduce exactly as it does under the sequential
// executor. This ties the full §4.3 pipeline (gated runs + turn ordering +
// checkpointed replicas) to the RQ1 experiment.
func TestTriggerLiveReplay(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			reported, err := b.ReportedSignature()
			if err != nil {
				t.Fatal(err)
			}
			s, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			gate := proxy.NewLocalGate()
			outcome, err := runner.ExecuteLive(s, interleave.Interleaving(b.Trigger),
				func(event.ReplicaID) proxy.TurnGate { return gate })
			if err != nil {
				t.Fatal(err)
			}
			if got := b.Sig(outcome); got != reported {
				t.Fatalf("live replay of the trigger does not reproduce the report:\nlive: %s\nreported: %s",
					got, reported)
			}
		})
	}
}
