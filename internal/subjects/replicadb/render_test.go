package replicadb

import (
	"bytes"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/wire"
)

// modelRow is one row of the model node.
type modelRow struct {
	key, value   string
	version, seq uint64
	deleted      bool
}

// model is an independent map-based ReplicaDB node: the transfer rules
// written out again over maps keyed by row key, sorted only when it
// renders or serialises. It reads nothing of Node, so a Node that files a
// row in the wrong place, loses one, or renders or serialises in the wrong
// order disagrees with it.
type model struct {
	flags             Flags
	source, sink      map[string]modelRow
	buffer            []modelRow
	peak              int
	version, seq, cut uint64
}

func newModel(flags Flags) *model {
	if flags.BufferLimit == 0 {
		flags.BufferLimit = 4
	}
	return &model{flags: flags, source: map[string]modelRow{}, sink: map[string]modelRow{}}
}

func (m *model) clone() *model {
	out := *m
	out.source, out.sink = make(map[string]modelRow), make(map[string]modelRow)
	for k, r := range m.source {
		out.source[k] = r
	}
	for k, r := range m.sink {
		out.sink[k] = r
	}
	out.buffer = append([]modelRow(nil), m.buffer...)
	return &out
}

func sortedKeys(table map[string]modelRow) []string {
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (m *model) insert(key, value string) {
	m.version++
	m.seq++
	m.source[key] = modelRow{key: key, value: value, version: m.version, seq: m.seq}
}

func (m *model) delete(key string) bool {
	r, ok := m.source[key]
	if !ok || r.deleted {
		return false
	}
	m.version++
	m.seq++
	r.deleted, r.version, r.seq = true, m.version, m.seq
	m.source[key] = r
	return true
}

func (m *model) fetch(batch int) bool {
	if !m.flags.BugUnboundedBuffer && len(m.buffer)+batch > m.flags.BufferLimit {
		return false
	}
	for _, k := range sortedKeys(m.source) {
		if batch > 0 && !m.source[k].deleted {
			m.buffer = append(m.buffer, m.source[k])
			batch--
		}
	}
	m.peak = max(m.peak, len(m.buffer))
	return true
}

func (m *model) toSink(r modelRow) {
	if cur, ok := m.sink[r.key]; !ok || cur.version < r.version {
		m.sink[r.key] = r
	}
}

func (m *model) drain() {
	for _, r := range m.buffer {
		m.toSink(r)
	}
	m.buffer = nil
}

func (m *model) transfer(incremental bool) {
	for _, r := range m.source {
		if incremental && (r.seq <= m.cut || r.deleted && m.flags.BugMissTombstones) {
			continue
		}
		m.toSink(r)
	}
	m.cut = m.seq
}

// mergeFrom adopts src's source rows in ascending key order — the order a
// sync payload carries them in, which fixes the Seq each adopted row gets.
func (m *model) mergeFrom(src *model) {
	for _, k := range sortedKeys(src.source) {
		in := src.source[k]
		if cur, ok := m.source[k]; m.flags.NoVersionResolution || !ok || cur.version < in.version {
			m.seq++
			in.seq = m.seq
			m.source[k] = in
		}
	}
	m.version = max(m.version, src.version)
}

// render is the live rows' "key=value" strings, sorted as strings.
func render(table map[string]modelRow) string {
	var rows []string
	for k, r := range table {
		if !r.deleted {
			rows = append(rows, k+"="+r.value)
		}
	}
	sort.Strings(rows)
	return strings.Join(rows, ",")
}

func appendModelRow(b []byte, r modelRow, seq uint64) []byte {
	b = wire.AppendString(b, r.key)
	b = wire.AppendString(b, r.value)
	b = wire.AppendUvarint(b, r.version)
	b = wire.AppendBool(b, r.deleted)
	return wire.AppendUvarint(b, seq)
}

func appendModelTable(b []byte, table map[string]modelRow, keepSeq bool) []byte {
	b = wire.AppendUvarint(b, uint64(len(table)))
	for _, k := range sortedKeys(table) {
		seq := uint64(0)
		if keepSeq {
			seq = table[k].seq
		}
		b = appendModelRow(b, table[k], seq)
	}
	return b
}

func (m *model) syncPayload() []byte {
	return wire.AppendUvarint(appendModelTable(nil, m.source, false), m.version)
}

func (m *model) snapshot() []byte {
	b := appendModelTable(nil, m.source, true)
	b = appendModelTable(b, m.sink, true)
	b = wire.AppendUvarint(b, uint64(len(m.buffer)))
	for _, r := range m.buffer {
		b = appendModelRow(b, r, r.seq)
	}
	for _, v := range []uint64{uint64(m.peak), m.version, m.seq, m.cut} {
		b = wire.AppendUvarint(b, v)
	}
	return b
}

// TestRenderOrderIsRenderedStringOrder pins the order of the rendered
// text, which is not key order: "k10=…" sorts before "k1=…" ('0' < '='),
// and a key that extends another compares past the shorter key's '='.
func TestRenderOrderIsRenderedStringOrder(t *testing.T) {
	n := New(Flags{})
	for _, kv := range [][2]string{{"k1", "a"}, {"k10", "b"}, {"k2", "c"}, {"k", "z"}, {"k=", "y"}, {"k1=", "x"}} {
		n.Insert(kv[0], kv[1])
	}
	const want = "k10=b,k1==x,k1=a,k2=c,k==y,k=z"
	if got := n.SourceRows(); got != want {
		t.Fatalf("SourceRows = %q, want %q", got, want)
	}
}

// TestRenderMatchesReference drives pairs of nodes and their models under
// every Flags combination through random histories of every op, syncs
// both ways, and restores of earlier snapshots, over keys and values drawn
// from an alphabet full of prefixes, '=' and ','. After every step
// SourceRows, SinkRows, readSource, readSink, Fingerprint, peakBuffer,
// Snapshot and SyncPayload must equal the model's.
func TestRenderMatchesReference(t *testing.T) {
	alphabet := []string{"k", "1", "0", "=", ",", "a", ""}
	word := func(rng *rand.Rand) string {
		var b strings.Builder
		for i := rng.Intn(3); i >= 0; i-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for bits := 0; bits < 8; bits++ {
		flags := Flags{
			BugUnboundedBuffer:  bits&1 != 0,
			BugMissTombstones:   bits&2 != 0,
			NoVersionResolution: bits&4 != 0,
		}
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nodes := []*Node{New(flags), New(flags)}
			models := []*model{newModel(flags), newModel(flags)}
			type saved struct {
				snapshot []byte
				model    *model
			}
			var snaps []saved
			for step := 0; step < 40; step++ {
				i := rng.Intn(2)
				n, m := nodes[i], models[i]
				where := "flags " + strconv.Itoa(bits) + " seed " + strconv.FormatInt(seed, 10) + " step " + strconv.Itoa(step)
				switch rng.Intn(10) {
				case 0, 1, 2:
					k, v := word(rng), word(rng)
					n.Insert(k, v)
					m.insert(k, v)
				case 3:
					k := word(rng)
					if got, want := n.Delete(k) == nil, m.delete(k); got != want {
						t.Fatalf("%s: Delete(%q) succeeded %v, want %v", where, k, got, want)
					}
				case 4:
					batch := 1 + rng.Intn(3)
					if got, want := n.Fetch(batch) == nil, m.fetch(batch); got != want {
						t.Fatalf("%s: Fetch(%d) succeeded %v, want %v", where, batch, got, want)
					}
				case 5:
					n.Drain()
					m.drain()
				case 6:
					incremental := rng.Intn(2) == 0
					if incremental {
						n.TransferIncremental()
					} else {
						n.TransferComplete()
					}
					m.transfer(incremental)
				case 7:
					payload, err := nodes[1-i].SyncPayload()
					if err != nil {
						t.Fatal(err)
					}
					if err := n.ApplySync(payload); err != nil {
						t.Fatal(err)
					}
					m.mergeFrom(models[1-i])
				case 8:
					data, err := n.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					snaps = append(snaps, saved{data, m.clone()})
				case 9:
					if len(snaps) == 0 {
						continue
					}
					sv := snaps[rng.Intn(len(snaps))]
					if err := n.Restore(sv.snapshot); err != nil {
						t.Fatal(err)
					}
					models[i] = sv.model.clone()
				}
				for j, n := range nodes {
					m := models[j]
					src, sink := render(m.source), render(m.sink)
					if got := n.SourceRows(); got != src {
						t.Fatalf("%s: SourceRows %q, want %q", where, got, src)
					}
					if got := n.SinkRows(); got != sink {
						t.Fatalf("%s: SinkRows %q, want %q", where, got, sink)
					}
					if got, _ := n.Apply(replica.Op{Name: "readSource"}); got != src {
						t.Fatalf("%s: readSource %q, want %q", where, got, src)
					}
					if got, _ := n.Apply(replica.Op{Name: "readSink"}); got != sink {
						t.Fatalf("%s: readSink %q, want %q", where, got, sink)
					}
					if got, want := n.Fingerprint(), "src{"+src+"}sink{"+sink+"}"; got != want {
						t.Fatalf("%s: Fingerprint %q, want %q", where, got, want)
					}
					if got, _ := n.Apply(replica.Op{Name: "peakBuffer"}); got != strconv.Itoa(m.peak) {
						t.Fatalf("%s: peakBuffer %s, want %d", where, got, m.peak)
					}
					if got, _ := n.Snapshot(); !bytes.Equal(got, m.snapshot()) {
						t.Fatalf("%s: Snapshot %x, want %x", where, got, m.snapshot())
					}
					if got, _ := n.SyncPayload(); !bytes.Equal(got, m.syncPayload()) {
						t.Fatalf("%s: SyncPayload %x, want %x", where, got, m.syncPayload())
					}
				}
			}
		}
	}
}

// TestRestoreRejectsUnorderedTables: a snapshot whose source or sink keys
// are not strictly ascending is not one Snapshot writes, and Restore
// rejects it without touching the node. The buffer keeps fetch order and
// may hold a key twice.
func TestRestoreRejectsUnorderedTables(t *testing.T) {
	snapshot := func(source, sink, buffer []string) []byte {
		var b []byte
		for _, keys := range [][]string{source, sink, buffer} {
			b = wire.AppendUvarint(b, uint64(len(keys)))
			for _, k := range keys {
				b = appendModelRow(b, modelRow{key: k, value: "v", version: 1}, 1)
			}
		}
		for i := 0; i < 4; i++ {
			b = wire.AppendUvarint(b, 0)
		}
		return b
	}
	n := New(Flags{})
	n.Insert("k", "v")
	want := n.Fingerprint()
	if err := New(Flags{}).Restore(snapshot([]string{"a", "b"}, []string{"a"}, []string{"b", "a", "b"})); err != nil {
		t.Fatalf("ordered snapshot rejected: %v", err)
	}
	for name, data := range map[string][]byte{
		"source descending": snapshot([]string{"b", "a"}, nil, nil),
		"source key twice":  snapshot([]string{"a", "a"}, nil, nil),
		"sink descending":   snapshot(nil, []string{"b", "a"}, nil),
	} {
		if err := n.Restore(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := n.Fingerprint(); got != want {
			t.Errorf("%s: rejected but changed the node: %q, want %q", name, got, want)
		}
	}
}
