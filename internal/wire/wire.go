// Package wire is the leaf codec under every evaluation subject's
// Snapshot/Restore and SyncPayload/ApplySync (DESIGN.md §4.16): uvarints,
// length-prefixed strings, lists of strings and one-byte bools appended to
// a []byte, and a Reader that takes them apart again. There is no reflection and no
// interface — an encoder is a sequence of Append calls in a fixed field
// order, its decoder the same sequence of Reader calls.
//
// Every item is self-delimiting, so an encoding is prefix-free: a strict
// prefix of a valid encoding runs out of bytes mid-item and an extension
// leaves bytes over, and Done rejects both.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrTruncated reports input that ended inside an item.
var ErrTruncated = errors.New("wire: truncated input")

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendString appends s as its uvarint length followed by its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStrings appends the count of ss, then each string.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// SortedKeys overwrites dst with m's keys in ascending order — the
// explicit form of the map-key ordering a canonical encoding needs.
func SortedKeys[V any](dst []string, m map[string]V) []string {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// Reader decodes what the Append functions wrote. The first failure
// sticks: every later read returns the zero value, so a decoder reads all
// its fields unconditionally and checks Done once at the end. A decoder
// must not act on what it read before Done returned nil.
type Reader struct {
	b   []byte
	off int // next unread byte; an index, so that advancing writes no pointer
	err error
}

// NewReader returns a Reader over b. It never writes to b and never
// retains it past the last read: decoded strings are copies, and only
// View hands out bytes that alias b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) left() int { return len(r.b) - r.off }

// Fail records err as the decode failure unless one is already recorded,
// for decoders that reject a well-formed item by its value.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads one AppendUvarint item.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.err = ErrTruncated
		} else {
			r.err = errors.New("wire: uvarint overflows 64 bits")
		}
		return 0
	}
	r.off += n
	return v
}

// Int reads one AppendUvarint item that must fit a non-negative int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Fail(fmt.Errorf("wire: %d overflows int", v))
		return 0
	}
	return int(v)
}

// String reads one AppendString item.
func (r *Reader) String() string { return string(r.View()) }

// View reads one AppendString item without copying it: the result aliases
// the input and must not be written or outlive it. A decoder looks up what
// it already holds (m[string(v)] does not allocate) and copies only what
// is new.
func (r *Reader) View() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.left()) {
		r.err = fmt.Errorf("wire: string of %d bytes, %d left: %w", n, r.left(), ErrTruncated)
		return nil
	}
	v := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return v
}

// Strings reads one AppendStrings item; an empty list decodes to nil.
func (r *Reader) Strings() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.String()
	}
	return ss
}

// Bool reads one AppendBool item; any byte other than 0 or 1 is an error.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.left() == 0 {
		r.err = ErrTruncated
		return false
	}
	c := r.b[r.off]
	if c > 1 {
		r.err = fmt.Errorf("wire: bool byte %#x", c)
		return false
	}
	r.off++
	return c == 1
}

// Count reads a collection length whose elements each occupy at least
// minElemBytes (≥ 1) bytes, and fails when that many elements cannot fit
// in the bytes left — so a corrupt count never sizes an allocation beyond
// the input.
func (r *Reader) Count(minElemBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.left()/minElemBytes) {
		r.err = fmt.Errorf("wire: count %d exceeds the %d bytes left: %w", n, r.left(), ErrTruncated)
		return 0
	}
	return int(n)
}

// Done returns the sticky error, or an error when input is left over.
func (r *Reader) Done() error {
	if r.err == nil && r.left() != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", r.left())
	}
	return r.err
}
