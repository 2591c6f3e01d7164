package bugs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/subjects/crdts"
)

// goldenDigests are SHA-256 digests of every byte string the subjects emit
// while replaying fixed orders (see goldenReplay), committed from the
// implementation that predates the subjects' allocation work (DESIGN.md
// §4.16, "What a replay allocates"). Snapshot bytes key the prefix cache
// and state subsumption, sync payloads cross the coordinator wire, and
// observations and fingerprints are what assertions and digests compare, so
// a change to any encoding, ordering or rendered string fails here — even
// one no benchmark row's reference digest would notice.
var goldenDigests = map[string]string{
	"OrbitDB-1/recorded":      "8da23d7ae5dab7b660ff80c438e14faa721be773a5d51b4b2b4bc2b98bc2a578",
	"OrbitDB-1/trigger":       "3f55b6d2f5689be06c87fd943fce8330568c4391ce86d478ec7cdd2f49628ece",
	"OrbitDB-2/recorded":      "a8e011789c538dd420fba0ee88b77bc35e1801c7e20efafd537efce57fe9f492",
	"OrbitDB-2/trigger":       "3e8665de3cd97ce598b1ff45ef7d1f96171614d1cd257c7b85e1bc40fe4a0f11",
	"OrbitDB-3/recorded":      "4bd4279e577d9f7fbe167ba12ac9e4cbed0e90062a14803fd4c5be5d17e8a0e5",
	"OrbitDB-3/trigger":       "918aacf4d60c9680f04adc48504c0993b1b9068c78b3a85ec1b7dc42b1eb5cf1",
	"OrbitDB-4/recorded":      "f385a059b8455f7d3024abef22c01e1314879e4e1080dcb9e7f80e8a7a81df3c",
	"OrbitDB-4/trigger":       "f5a7336d3721187fc5bc000808fa7d89408596dcf6bb4673b9d17c265f9ec54c",
	"OrbitDB-5/recorded":      "ed64475625e25767f1a2526e68a8f0831a778f9d45718e9fb8f3a663c0dcc5ee",
	"OrbitDB-5/trigger":       "1481c563d7cc70da14eaa4d42594b987adbbea1ec3fcfc0c4e6f009725ab680f",
	"ReplicaDB-1/recorded":    "77378dbb7135da0d7228600e6811b3a20d9e4b052cddd68e7bcb16487f529a86",
	"ReplicaDB-1/trigger":     "6fe80f148968bd33bb9a1f63bcc30d77a296a9ea11c99e26583cfc802a13017d",
	"ReplicaDB-2/recorded":    "e809551bd6c97a30a21e78fd315afac0653adbe2fdfb93f80fe94f8e5ffef3c2",
	"ReplicaDB-2/trigger":     "ba66d1303f21f9386ce497cefc4d55c25f19d7c0f9dd16e4318495b80ff5247b",
	"Roshi-1/recorded":        "ff482157c10052b51803a2b8a15f421d182ab1a95f806caac4b27d9590981884",
	"Roshi-1/trigger":         "21bcd1ced1801009b9c84efa0fcf14c1ffa0298fdced470f5dc536f540e6ff0c",
	"Roshi-2/recorded":        "8e1de050579ffd4542d4363250b304edf574de5ccafa9f72a2036152160365da",
	"Roshi-2/trigger":         "d2206d6423e706fc8261b22c0ba4569078084227d274e2c066bd69dc56b7210a",
	"Roshi-3/recorded":        "8dc6fd99f66c57de0f3d33945cc0276d652f1a61f945bce3e4b3065f489aa808",
	"Roshi-3/trigger":         "56fbc46f790c15f5cd20e986c32f3ae0cfe12428f0d932d4bfd5f7ab75648ddd",
	"Yorkie-1/recorded":       "e6235b0419563a057451745d634809c999636b8a406af341fe6a96167c6fdd31",
	"Yorkie-1/trigger":        "6483be33abd0953582439adaf28f31e5bda0500e072b80a0db82b3d4226c9fd6",
	"Yorkie-2/recorded":       "fa0c2c0b5b05c5b4f0693e6a2be7d384e5e5b09385d1cb2ee4470e20ecc1f15c",
	"Yorkie-2/trigger":        "0076613ce523c2eceb6a106e498f8bdbcdf60a7117ee875b948f1662e4e39b99",
	"crdts-lastsync/recorded": "3a14316b3fda6bca206036cf1b4ac052b9d6777999c94b2c74713f127f214020",
	"crdts-lastsync/reversed": "1ba144fdeca3e76e19cdc776664cff988f264d5ceeb91cc2adb7ffa167593faf",
	"crdts-naive/recorded":    "d424ecbeb18ad2d14c3c7e462ef43fa54a389d2d69445b20f1e778446a28726a",
	"crdts-naive/reversed":    "22e25cd96d94b90c4f2843df003615a7c1a4e4e900eef5c423638de4eb770112",
	"crdts/recorded":          "5297f35dbe84709d8c730db01bd6c21c383e0d8240a310494bf85d6adcc3adf1",
	"crdts/reversed":          "b57ff50c9882a4c2a7ed2cc133ce9b3a1627b789bff90877135c58dc6d2a4308",
}

// TestEncodingGolden replays the recorded order and the trigger order of
// every Table-1 row, and two orders of three crdts workspaces, and checks
// the digest of everything emitted along the way against goldenDigests.
func TestEncodingGolden(t *testing.T) {
	got := make(map[string]string)
	for _, b := range All() {
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		got[b.Name+"/recorded"] = goldenReplay(t, s, s.Log.IDs())
		got[b.Name+"/trigger"] = goldenReplay(t, s, b.Trigger)
	}
	for name, flags := range map[string]crdts.Flags{
		"crdts":          {},
		"crdts-naive":    {SequentialIDs: true, NaiveMove: true},
		"crdts-lastsync": {LastSyncWins: true},
	} {
		s := crdtsGoldenScenario(t, flags)
		ids := s.Log.IDs()
		got[name+"/recorded"] = goldenReplay(t, s, ids)
		slices.Reverse(ids)
		got[name+"/reversed"] = goldenReplay(t, s, ids)
	}
	for name, digest := range got {
		if want := goldenDigests[name]; digest != want {
			t.Errorf("%s: digest %s, want %s", name, digest, want)
		}
	}
	if len(got) != len(goldenDigests) {
		t.Errorf("replayed %d orders, %d digests committed", len(got), len(goldenDigests))
	}
}

// goldenReplay executes order against a fresh cluster the way the executor
// does (paired sends capture, standalone syncs capture at execution), then
// the scenario's Finalize, and hashes: each event's result or failure,
// every replica's Snapshot() and SyncPayload() after each event and after
// Finalize, and the final fingerprints.
func goldenReplay(t *testing.T, s runner.Scenario, order []event.ID) string {
	t.Helper()
	c, err := s.NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	sendFor := make(map[event.ID]event.ID)
	for _, pair := range s.Log.SyncPairs() {
		sendFor[pair[1]] = pair[0]
	}
	pending := make(map[event.ID][]byte)
	for _, id := range order {
		ev := s.Log.Event(id)
		node, err := c.Node(ev.Replica)
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case event.Update, event.Observe:
			res, err := node.State.Apply(replica.Op{Name: ev.Op, Args: ev.Args})
			goldenWrite(h, []byte(res))
			goldenWrite(h, []byte(errText(err)))
		case event.SyncSend:
			if pending[id], err = node.State.SyncPayload(); err != nil {
				t.Fatal(err)
			}
		case event.SyncExec:
			payload, ok := pending[sendFor[id]]
			if !ok {
				sender, err := c.Node(ev.From)
				if err != nil {
					t.Fatal(err)
				}
				if payload, err = sender.State.SyncPayload(); err != nil {
					t.Fatal(err)
				}
			}
			goldenWrite(h, []byte(errText(node.State.ApplySync(payload))))
		}
		goldenStates(t, h, c)
	}
	if s.Finalize != nil {
		if err := s.Finalize(c); err != nil {
			t.Fatal(err)
		}
		goldenStates(t, h, c)
	}
	for _, id := range c.IDs() {
		goldenWrite(h, []byte(c.Fingerprints()[id]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenStates(t *testing.T, h hash.Hash, c *replica.Cluster) {
	t.Helper()
	for _, id := range c.IDs() {
		node, err := c.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := node.State.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		payload, err := node.State.SyncPayload()
		if err != nil {
			t.Fatal(err)
		}
		goldenWrite(h, snap)
		goldenWrite(h, payload)
	}
}

// goldenWrite hashes b length-prefixed, so adjacent items cannot trade
// bytes without changing the digest.
func goldenWrite(h hash.Hash, b []byte) {
	h.Write(binary.AppendUvarint(nil, uint64(len(b))))
	h.Write(b)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// crdtsGoldenScenario records a workspace workload that reaches every op
// of the crdts subject, including both move strategies and failing ops.
func crdtsGoldenScenario(t *testing.T, flags crdts.Flags) runner.Scenario {
	t.Helper()
	newCluster := func() (*replica.Cluster, error) {
		return replica.NewCluster(map[event.ReplicaID]replica.State{
			"A": crdts.New("A", flags), "B": crdts.New("B", flags), "C": crdts.New("C", flags),
		}), nil
	}
	s, err := buildScenario("crdts-golden", newCluster, func(rec *runner.Recorder) {
		rec.Update("A", "list.insert", "0", "x")
		rec.Update("A", "list.insert", "1", "y")
		rec.Update("B", "tag.add", "red")
		rec.Update("C", "todo.create", "milk")
		rec.Sync("A", "B")
		rec.Update("B", "list.insert", "2", "z")
		rec.Update("B", "list.move", "0", "3")
		rec.Update("A", "list.move", "1", "0")
		rec.Update("A", "counter.inc", "3")
		rec.Update("B", "counter.dec", "1")
		rec.Sync("B", "A")
		rec.Sync("C", "A")
		rec.Update("A", "tag.add", "blue")
		rec.Update("A", "tag.remove", "red")
		rec.Update("C", "todo.create", "eggs")
		rec.Update("C", "todo.done", "1")
		rec.Sync("A", "C")
		rec.Observe("C", "list.read")
		rec.Observe("C", "tag.read")
		rec.Observe("C", "todo.read")
		rec.Observe("A", "counter.read")
		rec.Sync("C", "B")
		rec.Observe("B", "list.read")
	}, prune.Config{}, runner.AntiEntropy(2))
	if err != nil {
		t.Fatal(err)
	}
	return s
}
