package bugs_test

import (
	"fmt"
	"testing"

	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// restorePins are the executed / prefix-skipped event counts of a
// one-worker ModeERPi run at the paper's cap with a 1 MiB prefix cache,
// without and with a 1 MiB subsumption table — the cap-accel rows'
// configuration. They were recorded with the LRU snapshot trie the
// stack replaced, so a cache that restores less than the trie did fails
// here before it shows up as a slower benchmark. The subsumption pairs of
// Roshi-3 and Yorkie-1 were recorded again when a frontier stopped
// standing for a prefix whose completions replica-specific pruning keeps
// and the witness's it drops.
var restorePins = []struct {
	bug               string
	executed, skipped int64 // cache only
	subExec, subSkip  int64 // cache and subsumption
}{
	{"Roshi-3", 14208, 38292, 10164, 33282},
	{"OrbitDB-5", 13333, 46667, 4220, 18664},
	{"ReplicaDB-2", 7624, 27376, 2227, 9285},
	{"Yorkie-1", 9648, 32852, 2525, 12072},
}

// TestPrefixCacheRestorePins pins how much of each interleaving the
// prefix cache lets the executor skip on four Table-1 rows. Every event
// of every interleaving is either executed or skipped unless the
// interleaving is subsumed, so the pair also pins where subsumption cuts
// replay short.
func TestPrefixCacheRestorePins(t *testing.T) {
	for _, pin := range restorePins {
		b, ok := bugs.ByName(pin.bug)
		if !ok {
			t.Fatalf("unknown bug %q", pin.bug)
		}
		for _, subsume := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/subsume=%v", pin.bug, subsume), func(t *testing.T) {
				s, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				reg := telemetry.New()
				cfg := runner.Config{
					Mode:             runner.ModeERPi,
					MaxInterleavings: 2500,
					Workers:          1,
					PrefixCacheBytes: 1 << 20,
					Telemetry:        reg,
				}
				wantExec, wantSkip := pin.executed, pin.skipped
				if subsume {
					cfg.SubsumptionTable = 1 << 20
					wantExec, wantSkip = pin.subExec, pin.subSkip
				}
				if _, err := runner.Run(s, cfg); err != nil {
					t.Fatal(err)
				}
				c := reg.Snapshot().Counters
				exec, skip := c["runner.events_executed"], c["runner.events_skipped"]
				if exec != wantExec || skip != wantSkip {
					t.Errorf("events executed/skipped = %d/%d, want %d/%d", exec, skip, wantExec, wantSkip)
				}
			})
		}
	}
}
