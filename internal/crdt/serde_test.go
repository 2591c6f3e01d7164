package crdt

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/er-pi/erpi/internal/wire"
)

// The *JSONRoundTrip names predate the binary codec and are kept so the
// test IDs stay stable: the six replay-path types round-trip through
// AppendBinary/ReadBinary (roundTripBinary).

type binaryCodec interface {
	AppendBinary(b []byte) []byte
	ReadBinary(r *wire.Reader)
}

// roundTripBinary encodes in, decodes into out, and pins the codec rules
// on the way: the encoding is deterministic, every strict prefix and a
// one-byte extension are rejected, and re-encoding out is a fixed point.
func roundTripBinary(t *testing.T, in, out binaryCodec) {
	t.Helper()
	data := in.AppendBinary(nil)
	if again := in.AppendBinary(nil); !bytes.Equal(data, again) {
		t.Fatalf("encoding not deterministic:\n 1st: %x\n 2nd: %x", data, again)
	}
	for n := 0; n < len(data); n++ {
		r := wire.NewReader(data[:n])
		out.ReadBinary(r)
		if r.Done() == nil {
			t.Fatalf("strict prefix of %d/%d bytes decoded without error", n, len(data))
		}
	}
	r := wire.NewReader(append(data[:len(data):len(data)], 0))
	out.ReadBinary(r)
	if r.Done() == nil {
		t.Fatal("trailing byte decoded without error")
	}
	r = wire.NewReader(data)
	out.ReadBinary(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if back := out.AppendBinary(nil); !bytes.Equal(data, back) {
		t.Fatalf("decode then encode is not a fixed point:\n before: %x\n after:  %x", data, back)
	}
}

func TestGCounterJSONRoundTrip(t *testing.T) {
	g := NewGCounter()
	g.Inc("A", 3)
	g.Inc("B", 7)
	var out GCounter
	roundTripBinary(t, g, &out)
	if !g.Equal(&out) {
		t.Fatal("gcounter round trip lost state")
	}
}

func TestPNCounterJSONRoundTrip(t *testing.T) {
	p := NewPNCounter()
	p.Inc("A", 5)
	p.Dec("B", 2)
	var out PNCounter
	roundTripBinary(t, p, &out)
	if !p.Equal(&out) || out.Value() != 3 {
		t.Fatal("pncounter round trip lost state")
	}
}

func TestORSetJSONRoundTrip(t *testing.T) {
	c := NewClock("A")
	s := NewORSet()
	s.Add(c, "x")
	s.Add(c, "y")
	s.Remove("x")
	var out ORSet
	roundTripBinary(t, s, &out)
	if !s.Equal(&out) {
		t.Fatal("orset round trip lost state")
	}
	// Tombstones must survive: merging the original re-add of x must not
	// resurrect it.
	if out.Contains("x") {
		t.Fatal("tombstoned element resurrected")
	}
}

func TestLWWRegisterJSONRoundTrip(t *testing.T) {
	r := NewLWWRegister()
	r.Set("v", ts(9, "A"))
	var out LWWRegister
	roundTripBinary(t, r, &out)
	if !r.Equal(&out) {
		t.Fatal("register round trip lost state")
	}
}

func TestORMapJSONRoundTrip(t *testing.T) {
	m := NewORMap()
	m.Put("k", "v", ts(1, "A"))
	m.Put("dead", "x", ts(2, "A"))
	m.Remove("dead", ts(3, "A"))
	var out ORMap
	roundTripBinary(t, m, &out)
	if !m.Equal(&out) {
		t.Fatal("ormap round trip lost state")
	}
	if out.Contains("dead") {
		t.Fatal("removed key resurrected")
	}
}

func TestRGAJSONRoundTrip(t *testing.T) {
	c := NewClock("A")
	r := NewRGA()
	id1, _ := r.InsertAfter(c, HeadID, "a")
	r.InsertAfter(c, id1, "b")
	id3, _ := r.InsertAfter(c, HeadID, "front")
	r.Delete(id3)
	var out RGA
	roundTripBinary(t, r, &out)
	if !r.Equal(&out) {
		t.Fatal("rga round trip lost state")
	}
	if !reflect.DeepEqual(r.Values(), out.Values()) {
		t.Fatalf("rga order changed: %v vs %v", r.Values(), out.Values())
	}
}

// TestSerdeJoinEquivalence: decode(encode(x)) merged into an empty state
// equals x merged into an empty state, for the OR-set (the trickiest
// tombstone case).
func TestSerdeJoinEquivalence(t *testing.T) {
	c := NewClock("A")
	s := NewORSet()
	s.Add(c, "x")
	s.Remove("x")
	s.Add(c, "x") // re-add with a fresh tag
	var decoded ORSet
	roundTripBinary(t, s, &decoded)
	a := NewORSet()
	a.Merge(s)
	b := NewORSet()
	b.Merge(&decoded)
	if !a.Equal(b) {
		t.Fatal("decode(encode(x)) not join-equivalent to x")
	}
}
