package crdt

import (
	"bytes"
	"slices"
	"strconv"
	"testing"

	"github.com/er-pi/erpi/internal/wire"
)

// mergeable is a replay-path CRDT as FuzzMergeBinary drives it.
type mergeable interface {
	AppendBinary(b []byte) []byte
	ReadBinary(r *wire.Reader)
	MergeBinary(r *wire.Reader) error
}

// mergeKind adapts one CRDT to the fuzz harness: a fresh value, one local
// op chosen by a byte, the reference join and a copy.
type mergeKind struct {
	name  string
	fresh func() mergeable
	op    func(x mergeable, c *Clock, b byte)
	merge func(dst, src mergeable)
	clone func(x mergeable) mergeable
}

var mergeKinds = []mergeKind{
	{
		name:  "GCounter",
		fresh: func() mergeable { return NewGCounter() },
		op: func(x mergeable, c *Clock, b byte) {
			x.(*GCounter).Inc(c.Replica(), uint64(b%5)+1)
		},
		merge: func(dst, src mergeable) { dst.(*GCounter).Merge(src.(*GCounter)) },
		clone: func(x mergeable) mergeable { return x.(*GCounter).Clone() },
	},
	{
		name:  "PNCounter",
		fresh: func() mergeable { return NewPNCounter() },
		op: func(x mergeable, c *Clock, b byte) {
			if b&1 == 0 {
				x.(*PNCounter).Inc(c.Replica(), uint64(b>>1%5)+1)
			} else {
				x.(*PNCounter).Dec(c.Replica(), uint64(b>>1%5)+1)
			}
		},
		merge: func(dst, src mergeable) { dst.(*PNCounter).Merge(src.(*PNCounter)) },
		clone: func(x mergeable) mergeable { return x.(*PNCounter).Clone() },
	},
	{
		name:  "ORSet",
		fresh: func() mergeable { return NewORSet() },
		op: func(x mergeable, c *Clock, b byte) {
			s, elem := x.(*ORSet), "e"+strconv.Itoa(int(b>>1%4))
			if b&1 == 0 {
				s.Add(c, elem)
			} else {
				s.Remove(elem)
			}
		},
		merge: func(dst, src mergeable) { dst.(*ORSet).Merge(src.(*ORSet)) },
		clone: func(x mergeable) mergeable { return x.(*ORSet).Clone() },
	},
	{
		name:  "ORMap",
		fresh: func() mergeable { return NewORMap() },
		op: func(x mergeable, c *Clock, b byte) {
			m, key := x.(*ORMap), "k"+strconv.Itoa(int(b>>1%3))
			if b&1 == 0 {
				m.Put(key, "v"+strconv.Itoa(int(b>>3)), c.Now())
			} else {
				m.Remove(key, c.Now())
			}
		},
		merge: func(dst, src mergeable) { dst.(*ORMap).Merge(src.(*ORMap)) },
		clone: func(x mergeable) mergeable { return x.(*ORMap).Clone() },
	},
	{
		name:  "RGA",
		fresh: func() mergeable { return NewRGA() },
		op: func(x mergeable, c *Clock, b byte) {
			r, at := x.(*RGA), int(b>>2)
			n := r.Len()
			switch b & 3 {
			case 0:
				_, _ = r.InsertAt(c, at%(n+1), "v"+strconv.Itoa(at))
			case 1:
				if id, err := r.IDAt(at % max(n, 1)); err == nil {
					r.Delete(id)
				}
			case 2, 3:
				id, err := r.IDAt(at % max(n, 1))
				if err != nil {
					return
				}
				after := HeadID
				if dst, err := r.IDAt(at / 4 % n); err == nil && dst != id {
					after = dst
				}
				if b&3 == 2 {
					_, _ = r.MoveWins(c, id, after)
				} else {
					_, _ = r.Move(c, id, after)
				}
			}
		},
		merge: func(dst, src mergeable) { dst.(*RGA).Merge(src.(*RGA)) },
		clone: func(x mergeable) mergeable { return x.(*RGA).Clone() },
	},
}

// FuzzMergeBinary pins the by-view merge against the reference it
// replaces. history drives two replicas of one CRDT (kind picks which):
// each byte's low two bits pick a local op at A or at B, or a join of one
// into the other, and its high bits the op. The encoding of B, cut to cut
// bytes when that is shorter, then merges into A two ways: MergeBinary,
// and ReadBinary into a fresh value followed by Merge. Both must accept or
// reject alike; an accepted payload must give the same encoding either way
// (and again after a second, idempotent MergeBinary), a rejected one must
// leave A's encoding as it was.
func FuzzMergeBinary(f *testing.F) {
	for kind := range mergeKinds {
		f.Add(uint8(kind), []byte{0x00, 0x05, 0x11, 0x02, 0x24, 0x09, 0x3b, 0x48, 0x03, 0x56}, uint16(0xffff))
		f.Add(uint8(kind), []byte{0x01, 0x05, 0x0d, 0x03, 0x08, 0x14, 0x1e, 0x07, 0x29, 0x31}, uint16(9))
	}
	f.Fuzz(func(t *testing.T, kind uint8, history []byte, cut uint16) {
		k := mergeKinds[int(kind)%len(mergeKinds)]
		a, b := k.fresh(), k.fresh()
		ca, cb := NewClock("A"), NewClock("B")
		for _, h := range history {
			switch h & 3 {
			case 0:
				k.op(a, ca, h>>2)
			case 1:
				k.op(b, cb, h>>2)
			case 2:
				k.merge(a, b)
			case 3:
				k.merge(b, a)
			}
		}
		payload := b.AppendBinary(nil)
		if int(cut) < len(payload) {
			payload = payload[:cut:cut]
		}
		before := a.AppendBinary(nil)

		want := k.clone(a)
		remote := k.fresh()
		r := wire.NewReader(payload)
		remote.ReadBinary(r)
		wantErr := r.Done()
		if wantErr == nil {
			k.merge(want, remote)
		}

		got := k.clone(a)
		if r, ok := got.(*RGA); ok {
			r.Len() // a merge that changes nothing must keep this linearization
		}
		err := got.MergeBinary(wire.NewReader(payload))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: MergeBinary error %v, ReadBinary error %v", k.name, err, wantErr)
		}
		if err != nil {
			if after := got.AppendBinary(nil); !bytes.Equal(after, before) {
				t.Fatalf("%s: a rejected payload changed the receiver:\n before: %x\n after:  %x", k.name, before, after)
			}
			return
		}
		wantBytes := want.AppendBinary(nil)
		if gotBytes := got.AppendBinary(nil); !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("%s: MergeBinary diverged from ReadBinary + Merge:\n got:  %x\n want: %x", k.name, gotBytes, wantBytes)
		}
		if err := got.MergeBinary(wire.NewReader(payload)); err != nil {
			t.Fatalf("%s: second MergeBinary: %v", k.name, err)
		}
		if gotBytes := got.AppendBinary(nil); !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("%s: a second MergeBinary of the same payload changed the receiver", k.name)
		}
		if r, ok := got.(*RGA); ok {
			if g, w := r.Values(), want.(*RGA).Values(); !slices.Equal(g, w) {
				t.Fatalf("RGA: merged list reads %q, want %q", g, w)
			}
		}
	})
}
