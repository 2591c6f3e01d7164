package bugs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/er-pi/erpi/internal/miscon"
	"github.com/er-pi/erpi/internal/runner"
)

// recordedLogDigests are SHA-256 digests of every field of every event of
// the log each Table-1 row and Table-2 cell records (see logDigest). They
// were committed from the implementation that recorded through the proxy
// layer's interceptor, so a change to how runner.Recorder numbers, stamps
// or describes an event fails here.
var recordedLogDigests = map[string]string{
	"CRDTs#1":     "17169b19c1061c7e97e1a920cd639f10a6e62ff43480d8e106b4b185d74a7589",
	"CRDTs#2":     "de7d9c1d682bd61aa1a43979a2dac88874487ae3a0832264f8857e339b2ab3cb",
	"CRDTs#3":     "91b887a66b972ebd7270ad703060a00c0fbd26a5ad27a856f238fab64f229f8b",
	"CRDTs#4":     "6ea914bf73e3c86671ff61695f2a1879bc47cc34ac26a5a484ce2f0bbd9174a3",
	"CRDTs#5":     "5c22b4bd35c23103d96f45de6028d31786df069c0b6503df62c253ef076e25b0",
	"OrbitDB#1":   "d881d2bd63025bfd957635d4b9c747fbe007b3e2b61b2776ef7989d4b1083542",
	"OrbitDB#5":   "20b6bcad75d540cd5bcba265057d55ec0cf524450204664754746c029adf9f05",
	"OrbitDB-1":   "40f98d78e1ced84d4050f1936372455a5b437d1f3b6ea0a5c45310f6b1f6ea80",
	"OrbitDB-2":   "885a8c02cbcae881a7786dc1cda1faca277dfffc7f808d2e136a281fed98bb9a",
	"OrbitDB-3":   "3bf1cb3dda2daf2d8f9b78f38f495b80958880f39b6f9fb67f93c6375f58cf96",
	"OrbitDB-4":   "a37768d15fc81fd28c089b3656e647add4dbe596ee1df7736edc9735516e5ed2",
	"OrbitDB-5":   "2a9ba173476160df9849469b07a7405f65c9a0814ecb4921b7d575928c2c6589",
	"ReplicaDB#1": "440ccdf95dd932a7eba4f1e7d87738e6604d8c4a96b05edc852e984720211c28",
	"ReplicaDB-1": "eec26a0957fc844f95298d6cbbfa6404886184e163ee4dea70d1b081134f8754",
	"ReplicaDB-2": "1e4c7d139f10708da37ade9f3c8f10e2bc9c411596376964652f09fc0ea777cb",
	"Roshi#1":     "5b1881e2c1ad6a36dde0c1b818ba341a050489e31389f8ab317c86c4d045e156",
	"Roshi#2":     "3a8b792b56d3a1052947d3dd54680f4387f6faa3a6f03d397124f1af9deda6ef",
	"Roshi#3":     "4acb462ba591ab2df83775357a01cc5c39a73d5be07a6202e23dddbe9ccf2db0",
	"Roshi#5":     "3c1b70272a0a6cb18feecea0e062d87af2b2cc28a393757b4e4aa93121fbc655",
	"Roshi-1":     "5ccc55b19be29aecb813f179801e48134bd257e4bd4774e77481c92bdd353e5b",
	"Roshi-2":     "d62cbb6baed5dd966f4b013674b4a991553065a99f2c48d6497db625163a42b1",
	"Roshi-3":     "d37ab0b762cc6814bacccb237264d2700b33de74b4097d17eaf7d74ef97a0367",
	"Yorkie#1":    "bf0df5c3495dcfcba6dde7c51bdb58977e16f7a8e110d67ca0349988c61c1e08",
	"Yorkie#5":    "df9755435f761cfb4cf4e8ab6dc5fba57c7c636175414214e8c1d76b325eb74d",
	"Yorkie-1":    "e4fc89d087beadefacf32c10659510da9d7e202250ddc008c2c3aecb32bcff45",
	"Yorkie-2":    "da76637c3e19d48b131577879933b2bcee9de774e55b6f9ba7fa0c8fefe307bb",
}

// TestRecordedLogGolden builds every Table-1 and Table-2 scenario and
// checks the digest of its recorded log against recordedLogDigests.
func TestRecordedLogGolden(t *testing.T) {
	got := make(map[string]string)
	for _, b := range All() {
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		got[b.Name] = logDigest(s)
	}
	for _, m := range miscon.All() {
		s, err := m.Build()
		if err != nil {
			t.Fatal(err)
		}
		got[m.Name()] = logDigest(s)
	}
	for name, digest := range got {
		if want := recordedLogDigests[name]; digest != want {
			t.Errorf("%s: digest %s, want %s", name, digest, want)
		}
	}
	if len(got) != len(recordedLogDigests) {
		t.Errorf("recorded %d logs, %d digests committed", len(got), len(recordedLogDigests))
	}
}

// logDigest hashes, per event in log order, its ID, Lamport stamp, kind,
// replica, op, args, sender, receiver and carried events, each
// length-prefixed.
func logDigest(s runner.Scenario) string {
	h := sha256.New()
	num := func(v uint64) { goldenWrite(h, binary.AppendUvarint(nil, v)) }
	for _, ev := range s.Log.Events() {
		num(uint64(ev.ID))
		num(ev.Lamport)
		goldenWrite(h, []byte(ev.Kind.String()))
		goldenWrite(h, []byte(ev.Replica))
		goldenWrite(h, []byte(ev.Op))
		num(uint64(len(ev.Args)))
		for _, a := range ev.Args {
			goldenWrite(h, []byte(a))
		}
		goldenWrite(h, []byte(ev.From))
		goldenWrite(h, []byte(ev.To))
		num(uint64(len(ev.Carries)))
		for _, id := range ev.Carries {
			num(uint64(id))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
