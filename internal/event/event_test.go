package event

import (
	"strings"
	"testing"
)

func upd(r ReplicaID, op string) Event {
	return Event{Kind: Update, Replica: r, Op: op}
}

func syncSend(from, to ReplicaID, carries ...ID) Event {
	return Event{Kind: SyncSend, Replica: from, From: from, To: to, Carries: carries}
}

func syncExec(from, to ReplicaID, carries ...ID) Event {
	return Event{Kind: SyncExec, Replica: to, From: from, To: to, Carries: carries}
}

func observe(r ReplicaID, op string) Event {
	return Event{Kind: Observe, Replica: r, Op: op}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Update:   "update",
		SyncSend: "sync_req",
		SyncExec: "exec_sync",
		Observe:  "observe",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
		parsed, err := ParseKind(want)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", want, err)
		}
		if parsed != k {
			t.Errorf("ParseKind(%q) = %v, want %v", want, parsed, k)
		}
	}
	if Kind(0).Valid() {
		t.Error("zero Kind must be invalid")
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) should fail")
	}
}

func TestEventValidate(t *testing.T) {
	tests := []struct {
		name    string
		ev      Event
		wantErr string
	}{
		{"valid update", Event{Kind: Update, Replica: "A"}, ""},
		{"valid observe", Event{Kind: Observe, Replica: "A"}, ""},
		{"valid sync send", Event{Kind: SyncSend, Replica: "A", From: "A", To: "B"}, ""},
		{"valid sync exec", Event{Kind: SyncExec, Replica: "B", From: "A", To: "B"}, ""},
		{"zero kind", Event{Replica: "A"}, "invalid kind"},
		{"missing replica", Event{Kind: Update}, "missing replica"},
		{"sync without endpoints", Event{Kind: SyncSend, Replica: "A"}, "requires from and to"},
		{"sync to self", Event{Kind: SyncSend, Replica: "A", From: "A", To: "A"}, "to itself"},
		{"send at wrong replica", Event{Kind: SyncSend, Replica: "B", From: "A", To: "B"}, "must execute at sender"},
		{"exec at wrong replica", Event{Kind: SyncExec, Replica: "A", From: "A", To: "B"}, "must execute at receiver"},
		{"update with endpoints", Event{Kind: Update, Replica: "A", From: "A", To: "B"}, "must not carry"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.ev.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestEventTouches(t *testing.T) {
	send := syncSend("A", "B")
	exec := syncExec("A", "B")
	if !send.Touches("A") || send.Touches("B") {
		t.Error("sync_req touches only the sender")
	}
	if !exec.Touches("B") {
		t.Error("exec_sync touches the receiver")
	}
	if exec.Touches("C") {
		t.Error("exec_sync must not touch an unrelated replica")
	}
}

func TestNewLogAssignsIDsAndLamport(t *testing.T) {
	log, err := NewLog([]Event{upd("A", "x"), upd("B", "y"), observe("A", "read")})
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", log.Len())
	}
	for i, ev := range log.Events() {
		if ev.ID != ID(i) {
			t.Errorf("event %d has ID %d", i, ev.ID)
		}
		if ev.Lamport != uint64(i+1) {
			t.Errorf("event %d has Lamport %d, want %d", i, ev.Lamport, i+1)
		}
	}
}

func TestNewLogRejectsInvalid(t *testing.T) {
	if _, err := NewLog([]Event{{Kind: Update}}); err == nil {
		t.Fatal("NewLog should reject an event without a replica")
	}
}

func TestLogReplicasAndByReplica(t *testing.T) {
	log, err := NewLog([]Event{
		upd("B", "x"),
		upd("A", "y"),
		syncSend("B", "A", 0),
		syncExec("B", "A", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := log.Replicas()
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("Replicas() = %v, want [A B]", got)
	}
	a := log.ByReplica("A")
	if len(a) != 2 || a[0] != 1 || a[1] != 3 {
		t.Fatalf("ByReplica(A) = %v, want [1 3]", a)
	}
}

func TestSyncPairs(t *testing.T) {
	log, err := NewLog([]Event{
		upd("A", "add"),       // 0
		syncSend("A", "B", 0), // 1
		upd("B", "add"),       // 2
		syncExec("A", "B", 0), // 3 pairs with 1
		syncSend("B", "A", 2), // 4
		syncExec("B", "A", 2), // 5 pairs with 4
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := log.SyncPairs()
	want := [][2]ID{{1, 3}, {4, 5}}
	if len(pairs) != len(want) {
		t.Fatalf("SyncPairs() = %v, want %v", pairs, want)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Errorf("pair %d = %v, want %v", i, pairs[i], want[i])
		}
	}
}

func TestSyncPairsNoCrossMatch(t *testing.T) {
	// Two sends with different payloads must not pair with each other's exec.
	log, err := NewLog([]Event{
		upd("A", "add"),       // 0
		upd("A", "add"),       // 1
		syncSend("A", "B", 0), // 2
		syncSend("A", "B", 1), // 3
		syncExec("A", "B", 1), // 4 pairs with 3
		syncExec("A", "B", 0), // 5 pairs with 2
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := log.SyncPairs()
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs, want 2", len(pairs))
	}
	if pairs[0] != [2]ID{2, 5} || pairs[1] != [2]ID{3, 4} {
		t.Fatalf("SyncPairs() = %v, want [[2 5] [3 4]]", pairs)
	}
}

func TestEventString(t *testing.T) {
	e := Event{ID: 3, Kind: SyncSend, Replica: "A", From: "A", To: "B", Op: "set.add", Args: []string{"x"}}
	s := e.String()
	for _, want := range []string{"ev3", "sync_req", "A->B", "set.add", "(x)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
