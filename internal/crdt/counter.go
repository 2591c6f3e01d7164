package crdt

// GCounter is a grow-only counter: each replica increments its own
// component; the value is the sum; join is the component-wise maximum.
type GCounter struct {
	counts map[string]uint64
	keys   []string    // AppendBinary's sort scratch
	in     []countView // ViewBinary's merge scratch
}

// NewGCounter returns an empty grow-only counter.
func NewGCounter() *GCounter {
	return &GCounter{counts: make(map[string]uint64)}
}

// Inc adds delta to the component of replica r.
func (g *GCounter) Inc(r string, delta uint64) {
	g.counts[r] += delta
}

// Value returns the counter total.
func (g *GCounter) Value() uint64 {
	var sum uint64
	for _, n := range g.counts {
		sum += n
	}
	return sum
}

// Merge joins another counter into this one (component-wise max).
func (g *GCounter) Merge(other *GCounter) {
	for r, n := range other.counts {
		if n > g.counts[r] {
			g.counts[r] = n
		}
	}
}

// Clone returns an independent copy.
func (g *GCounter) Clone() *GCounter {
	out := NewGCounter()
	for r, n := range g.counts {
		out.counts[r] = n
	}
	return out
}

// Equal reports state identity.
func (g *GCounter) Equal(other *GCounter) bool {
	if len(g.counts) != len(other.counts) {
		// Zero components may legitimately be absent on one side.
		return g.equalSparse(other) && other.equalSparse(g)
	}
	return g.equalSparse(other) && other.equalSparse(g)
}

func (g *GCounter) equalSparse(other *GCounter) bool {
	for r, n := range g.counts {
		if other.counts[r] != n {
			return false
		}
	}
	return true
}

// Components returns a copy of the per-replica counts.
func (g *GCounter) Components() map[string]uint64 {
	out := make(map[string]uint64, len(g.counts))
	for r, n := range g.counts {
		out[r] = n
	}
	return out
}

// PNCounter supports increments and decrements as a pair of GCounters.
type PNCounter struct {
	pos *GCounter
	neg *GCounter
}

// NewPNCounter returns an empty counter.
func NewPNCounter() *PNCounter {
	return &PNCounter{pos: NewGCounter(), neg: NewGCounter()}
}

// Inc adds delta at replica r.
func (p *PNCounter) Inc(r string, delta uint64) { p.pos.Inc(r, delta) }

// Dec subtracts delta at replica r.
func (p *PNCounter) Dec(r string, delta uint64) { p.neg.Inc(r, delta) }

// Value returns the net count (may be negative).
func (p *PNCounter) Value() int64 {
	return int64(p.pos.Value()) - int64(p.neg.Value())
}

// Merge joins another counter into this one.
func (p *PNCounter) Merge(other *PNCounter) {
	p.pos.Merge(other.pos)
	p.neg.Merge(other.neg)
}

// Clone returns an independent copy.
func (p *PNCounter) Clone() *PNCounter {
	return &PNCounter{pos: p.pos.Clone(), neg: p.neg.Clone()}
}

// Equal reports state identity.
func (p *PNCounter) Equal(other *PNCounter) bool {
	return p.pos.Equal(other.pos) && p.neg.Equal(other.neg)
}
