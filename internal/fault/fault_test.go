package fault

import "testing"

func TestValidateRejectsMalformedFaults(t *testing.T) {
	bad := []Fault{
		{Kind: CrashReplica},                            // no replica
		{Kind: Partition, A: "A", B: "A"},               // self-link
		{Kind: Partition, A: "A"},                       // missing peer
		{Kind: TruncatePayload, KeepBytes: -1},          // negative length
		{Kind: CrashReplica, Replica: "A", At: -1},      // negative position
		{Kind: Kind(99)},                                // unknown kind
		{Kind: Kind(2)},                                 // reserved kind
		{Kind: Partition, A: "A", B: "B", Duration: -2}, // negative window
		{Kind: CrashReplica, Replica: "A", Prob: 0.5, Interleaving: -1},
	}
	for i, f := range bad {
		if err := (Schedule{Faults: []Fault{f}}).Validate(); err == nil {
			t.Errorf("fault %d (%s) should be rejected", i, f)
		}
	}
	ok := Schedule{Seed: 7, Faults: []Fault{
		{Kind: CrashReplica, Replica: "A", At: 2, Duration: 3},
		{Kind: Partition, A: "A", B: "B", At: 0, Duration: 1},
		{Kind: TruncatePayload, At: 4, KeepBytes: 8},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if _, err := NewInjector(Schedule{Faults: []Fault{bad[0]}}); err == nil {
		t.Fatal("NewInjector must reject invalid schedules")
	}
}

func TestCrashWindow(t *testing.T) {
	in, err := NewInjector(Schedule{Faults: []Fault{
		{Kind: CrashReplica, Replica: "B", At: 2, Duration: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	in.Begin(1)
	if acts := in.At(0); len(acts) != 0 {
		t.Fatalf("position 0: unexpected actions %v", acts)
	}
	if in.ReplicaDown("B") {
		t.Fatal("B down before the crash fires")
	}
	in.At(1)
	acts := in.At(2)
	if len(acts) != 1 || acts[0].Kind != ActionCrash || acts[0].Replica != "B" {
		t.Fatalf("position 2: actions = %v, want one crash of B", acts)
	}
	for pos := 2; pos <= 4; pos++ {
		if pos > 2 {
			in.At(pos)
		}
		if !in.ReplicaDown("B") {
			t.Fatalf("position %d: B should be down", pos)
		}
		if in.ReplicaDown("A") {
			t.Fatalf("position %d: A should be up", pos)
		}
	}
	acts = in.At(5)
	if len(acts) != 1 || acts[0].Kind != ActionRestart || acts[0].Replica != "B" {
		t.Fatalf("position 5: actions = %v, want one restart of B", acts)
	}
	if in.ReplicaDown("B") {
		t.Fatal("B still down after its window")
	}

	// An immediate-restart crash rolls back without downtime.
	in2, err := NewInjector(Schedule{Faults: []Fault{
		{Kind: CrashReplica, Replica: "A", At: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	in2.Begin(1)
	in2.At(0)
	acts = in2.At(1)
	if len(acts) != 1 || acts[0].Kind != ActionCrash {
		t.Fatalf("actions = %v, want one crash", acts)
	}
	if in2.ReplicaDown("A") {
		t.Fatal("duration-0 crash must not leave the replica down")
	}
}

func TestInterleavingSelector(t *testing.T) {
	in, err := NewInjector(Schedule{Faults: []Fault{
		{Kind: CrashReplica, Replica: "A", At: 0, Interleaving: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for index := 1; index <= 5; index++ {
		in.Begin(index)
		acts := in.At(0)
		if index == 3 && len(acts) != 1 {
			t.Fatalf("interleaving 3 must crash, got %v", acts)
		}
		if index != 3 && len(acts) != 0 {
			t.Fatalf("interleaving %d must be fault-free, got %v", index, acts)
		}
		in.Finish()
	}
}

func TestProbabilisticArmingIsSeeded(t *testing.T) {
	sched := Schedule{Seed: 99, Faults: []Fault{
		{Kind: Partition, A: "A", B: "B", At: 0, Duration: 100, Prob: 0.5},
	}}
	roll := func() []bool {
		in, err := NewInjector(sched)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 0, 50)
		for index := 1; index <= 50; index++ {
			in.Begin(index)
			out = append(out, in.AnyArmed())
		}
		return out
	}
	a, b := roll(), roll()
	armedCount := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleaving %d: arming not reproducible", i+1)
		}
		if a[i] {
			armedCount++
		}
	}
	if armedCount == 0 || armedCount == len(a) {
		t.Fatalf("Prob=0.5 armed %d/%d interleavings — not probabilistic", armedCount, len(a))
	}
}

// TestProbabilisticArmingIsOrderIndependent pins the property the parallel
// exploration engine depends on: arming for interleaving N is a pure
// function of (schedule seed, N), not of which interleavings were begun
// before it, so per-worker injector clones visiting indices in any order
// arm exactly like a single sequential injector.
func TestProbabilisticArmingIsOrderIndependent(t *testing.T) {
	sched := Schedule{Seed: 12345, Faults: []Fault{
		{Kind: Partition, A: "A", B: "B", At: 0, Duration: 100, Prob: 0.5},
	}}
	armedAt := func(in *Injector, index int) bool {
		in.Begin(index)
		armed := in.AnyArmed()
		in.Finish()
		return armed
	}

	// Sequential reference: one injector visiting 1..32 in order.
	seq, err := NewInjector(sched)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]bool, 33)
	for index := 1; index <= 32; index++ {
		want[index] = armedAt(seq, index)
	}

	// A clone visiting the same indices in reverse, and another sampling
	// only the odd ones, must agree everywhere they look.
	rev, err := NewInjector(sched)
	if err != nil {
		t.Fatal(err)
	}
	for index := 32; index >= 1; index-- {
		if got := armedAt(rev, index); got != want[index] {
			t.Fatalf("index %d: reverse-order clone armed=%v, sequential=%v", index, got, want[index])
		}
	}
	odd, err := NewInjector(sched)
	if err != nil {
		t.Fatal(err)
	}
	for index := 1; index <= 32; index += 2 {
		if got := armedAt(odd, index); got != want[index] {
			t.Fatalf("index %d: sparse clone armed=%v, sequential=%v", index, got, want[index])
		}
	}

	// Retrying (re-Begin) the same index re-rolls the same arming.
	for index := 1; index <= 32; index++ {
		if got := armedAt(seq, index); got != want[index] {
			t.Fatalf("index %d: retry re-rolled differently", index)
		}
	}
}

func TestPartitionWindow(t *testing.T) {
	in, err := NewInjector(Schedule{Faults: []Fault{
		{Kind: Partition, A: "A", B: "B", At: 1, Duration: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	in.Begin(1)
	in.At(0)
	if in.Partitioned("A", "B") {
		t.Fatal("partitioned before the window")
	}
	in.At(1)
	if !in.Partitioned("A", "B") || !in.Partitioned("B", "A") {
		t.Fatal("window must sever both directions")
	}
	if in.Partitioned("A", "M") {
		t.Fatal("unrelated link severed")
	}
	in.At(2)
	if !in.Partitioned("A", "B") {
		t.Fatal("window spans [At, At+Duration]")
	}
	in.At(3)
	if in.Partitioned("A", "B") {
		t.Fatal("window must close after At+Duration")
	}
}

func TestPayloadTruncation(t *testing.T) {
	in, err := NewInjector(Schedule{Faults: []Fault{
		{Kind: TruncatePayload, At: 2, KeepBytes: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	in.Begin(1)
	payload := []byte("abcdefgh")
	if got := in.Payload(1, payload); len(got) != 8 {
		t.Fatalf("truncation fired at the wrong position: %q", got)
	}
	got := in.Payload(2, payload)
	if string(got) != "abc" {
		t.Fatalf("truncated payload = %q, want abc", got)
	}
	if string(payload) != "abcdefgh" {
		t.Fatal("input payload mutated")
	}
}
