package proxy

import (
	"time"

	"github.com/er-pi/erpi/internal/lockserver"
)

// DistGate is the lock server's turn sequencer used as a TurnGate, giving
// replay ordering across OS processes — the paper's "distributed lock …
// with a shared key managed by a Redis server" (§4.3). The shared key is a
// counter and the counter is the lock: a ticket lock whose "now serving"
// value lives on the server. The replica whose turn the counter names
// holds it, nobody else advances it, and Advance — one non-retried
// increment — hands it on.
type DistGate = lockserver.Sequencer

var _ TurnGate = (*DistGate)(nil)

// NewDistGate builds a distributed gate for one holder; key namespaces the
// session, and every holder of a session needs its own client (a parked
// wait owns its connection). The third argument named the holder of a
// per-turn mutex the gate no longer takes; it is ignored.
func NewDistGate(client *lockserver.Client, key, _ string) *DistGate {
	return lockserver.NewSequencer(client, key+":turn", time.Millisecond)
}
