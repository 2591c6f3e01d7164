package wire

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// record is a decoder over every item kind, shaped like the subjects'
// own: a counted list of (string, uvarint, bool, strings) followed by a
// trailer.
type record struct {
	rows    []row
	trailer uint64
}

type row struct {
	s  string
	v  uint64
	b  bool
	ss []string
}

func (rec record) append(b []byte) []byte {
	b = AppendUvarint(b, uint64(len(rec.rows)))
	for _, r := range rec.rows {
		b = AppendString(b, r.s)
		b = AppendUvarint(b, r.v)
		b = AppendBool(b, r.b)
		b = AppendStrings(b, r.ss)
	}
	return AppendUvarint(b, rec.trailer)
}

func decode(data []byte) (record, error) {
	r := NewReader(data)
	var rec record
	if n := r.Count(4); n > 0 {
		rec.rows = make([]row, n)
		for i := range rec.rows {
			rec.rows[i] = row{s: r.String(), v: r.Uvarint(), b: r.Bool(), ss: r.Strings()}
		}
	}
	rec.trailer = r.Uvarint()
	return rec, r.Done()
}

var samples = []record{
	{},
	{trailer: math.MaxUint64},
	{rows: []row{{s: ""}}},
	{rows: []row{
		{"k", 1, true, []string{"p"}},
		{"a longer string \x00 with a NUL", 1 << 40, false, []string{"", "two", "3"}},
		{"ü", 127, true, nil}, // an empty list decodes to nil
		{"", 128, false, nil},
	}, trailer: 300},
}

func TestRoundTrip(t *testing.T) {
	for _, want := range samples {
		data := want.append(nil)
		got, err := decode(data)
		if err != nil {
			t.Fatalf("decode(%x): %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip of %+v gave %+v", want, got)
		}
	}
}

// TestStrictPrefixesAndTrailingBytes: an encoding is prefix-free, so every
// strict prefix ends inside an item and every extension leaves bytes over.
func TestStrictPrefixesAndTrailingBytes(t *testing.T) {
	for _, rec := range samples {
		data := rec.append(nil)
		for n := 0; n < len(data); n++ {
			if _, err := decode(data[:n]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("prefix %d/%d of %x: err = %v, want ErrTruncated", n, len(data), data, err)
			}
		}
		for _, extra := range []byte{0, 1, 0x80, 0xff} {
			if _, err := decode(append(data[:len(data):len(data)], extra)); err == nil {
				t.Fatalf("%x plus trailing %#x decoded without error", data, extra)
			}
		}
	}
}

// TestCountBoundsAllocation: a count of 2^63 on a three-byte input fails
// in Count itself, before the caller sizes anything by it.
func TestCountBoundsAllocation(t *testing.T) {
	data := append(AppendUvarint(nil, 1<<63), 1, 2, 3)
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(data)
		if n := r.Count(1); n != 0 {
			t.Fatalf("Count = %d on a 3-byte remainder", n)
		}
		_ = make([]row, r.Count(1)) // what a decoder does next: nothing to size
	})
	// A handful of small objects for the formatted error; nothing is sized
	// by the count (an allocation of 2^63 rows would not return at all).
	if allocs > 8 {
		t.Fatalf("rejecting an oversized count allocated %.0f objects", allocs)
	}
	if err := NewReader(data).Done(); err == nil {
		t.Fatal("Done accepted unread input")
	}
	r := NewReader(data)
	r.Count(1)
	if err := r.Done(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("oversized count: err = %v, want ErrTruncated", err)
	}

	// The bound is in elements, not bytes: 3 bytes hold one 3-byte element.
	for _, c := range []struct {
		count uint64
		min   int
		ok    bool
	}{{3, 1, true}, {4, 1, false}, {1, 3, true}, {2, 3, false}, {1, 4, false}, {0, 9, true}} {
		r := NewReader(append(AppendUvarint(nil, c.count), 1, 2, 3))
		n := r.Count(c.min)
		if ok := r.err == nil; ok != c.ok || (ok && n != int(c.count)) {
			t.Fatalf("Count(%d) of %d over 3 bytes = %d, err %v; want ok=%v", c.min, c.count, n, r.err, c.ok)
		}
	}
}

func TestBoolRejectsOtherBytes(t *testing.T) {
	for c := 0; c < 256; c++ {
		r := NewReader([]byte{byte(c)})
		got := r.Bool()
		err := r.Done()
		if c <= 1 {
			if err != nil || got != (c == 1) {
				t.Fatalf("Bool(%#x) = %v, %v", c, got, err)
			}
		} else if err == nil {
			t.Fatalf("Bool(%#x) accepted", c)
		}
	}
}

func TestUvarintOverflow(t *testing.T) {
	// Eleven continuation bytes cannot be a 64-bit value.
	r := NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	r.Uvarint()
	if err := r.Done(); err == nil {
		t.Fatal("overlong uvarint accepted")
	}
	// Int takes a uvarint only when it fits a non-negative int.
	r = NewReader(AppendUvarint(nil, 1<<63))
	if v := r.Int(); v != 0 || r.Done() == nil {
		t.Fatalf("Int(1<<63) = %d, accepted", v)
	}
	r = NewReader(AppendUvarint(nil, 300))
	if v := r.Int(); v != 300 || r.Done() != nil {
		t.Fatalf("Int(300) = %d, %v", v, r.Done())
	}
}

// TestErrorSticks: after the first failure every read returns the zero
// value and Done keeps returning that first failure.
func TestErrorSticks(t *testing.T) {
	r := NewReader([]byte{2, 5, 'h', 'e', 'l', 'l', 'o'})
	if r.Bool() {
		t.Fatal("Bool(2) returned true")
	}
	first := r.Done()
	if first == nil {
		t.Fatal("bool byte 2 accepted")
	}
	if s, v, b, n := r.String(), r.Uvarint(), r.Bool(), r.Count(1); s != "" || v != 0 || b || n != 0 {
		t.Fatalf("reads after a failure returned %q %d %v %d", s, v, b, n)
	}
	r.Fail(errors.New("later"))
	if err := r.Done(); err != first {
		t.Fatalf("Done = %v, want the first failure %v", err, first)
	}

	r = NewReader([]byte{1})
	r.Bool()
	custom := errors.New("rejected by value")
	r.Fail(custom)
	if err := r.Done(); err != custom {
		t.Fatalf("Done = %v, want the Fail error", err)
	}
}

func TestSortedKeys(t *testing.T) {
	got := SortedKeys(nil, map[string]int{"b": 1, "": 2, "a": 3, "B": 4})
	if want := []string{"", "B", "a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedKeys = %q, want %q", got, want)
	}
	// The destination is overwritten, never appended to, and reused.
	again := SortedKeys(got, map[string]int{"z": 1, "y": 2})
	if want := []string{"y", "z"}; !reflect.DeepEqual(again, want) || &again[0] != &got[0] {
		t.Fatalf("SortedKeys(dst) = %q, want %q in dst's array", again, want)
	}
	if got := SortedKeys(nil, map[string]bool(nil)); len(got) != 0 {
		t.Fatalf("SortedKeys(nil) = %q", got)
	}
	m := map[string]int{"b": 1, "a": 2}
	if allocs := testing.AllocsPerRun(10, func() { got = SortedKeys(got, m) }); allocs != 0 {
		t.Fatalf("warm SortedKeys allocates %.0f objects", allocs)
	}
}

// TestViewAliasesInput: View is the one read that does not copy, and it
// fails exactly like String on a truncated item.
func TestViewAliasesInput(t *testing.T) {
	data := AppendString(AppendString(nil, "payload"), "x")
	r := NewReader(data)
	v, s := r.View(), r.String()
	if err := r.Done(); err != nil || string(v) != "payload" || s != "x" {
		t.Fatalf("View, String = %q, %q (%v)", v, s, err)
	}
	data[1] = 'P'
	if string(v) != "Payload" {
		t.Fatalf("view %q does not alias the input", v)
	}
	if cap(v) != len(v) {
		t.Fatalf("view has capacity %d past its length %d", cap(v), len(v))
	}
	r = NewReader(data[:4])
	if v := r.View(); v != nil || !errors.Is(r.Done(), ErrTruncated) {
		t.Fatalf("truncated View = %q, %v", v, r.Done())
	}
}

// TestDecodedStringsAreCopies: a decoder's output must not alias the
// input, which the engine shares between receivers and cache entries.
func TestDecodedStringsAreCopies(t *testing.T) {
	data := AppendString(nil, "payload")
	r := NewReader(data)
	s := r.String()
	for i := range data {
		data[i] = 'x'
	}
	if s != "payload" {
		t.Fatalf("decoded string changed with the input: %q", s)
	}
}
