package replicadb

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
)

// referenceRenderRows is how a table rendered before rows were sorted in
// place: a "key=value" string per live row, sorted as strings, joined.
func referenceRenderRows(table map[string]*row) string {
	keys := make([]string, 0, len(table))
	for k, r := range table {
		if !r.Deleted {
			keys = append(keys, k+"="+r.Value)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
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
	if got := n.SourceRows(); got != want || got != referenceRenderRows(n.source) {
		t.Fatalf("SourceRows = %q, want %q", got, want)
	}
}

// TestRenderMatchesReference compares SourceRows, SinkRows, readSource and
// Fingerprint with the reference rendering over random tables whose keys
// and values are drawn from an alphabet full of prefixes, '=' and ','.
func TestRenderMatchesReference(t *testing.T) {
	alphabet := []string{"k", "1", "0", "=", ",", "a", ""}
	word := func(rng *rand.Rand) string {
		var b strings.Builder
		for i := rng.Intn(4); i >= 0; i-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := New(Flags{})
		for i := rng.Intn(12); i >= 0; i-- {
			n.Insert(word(rng), word(rng))
			if rng.Intn(3) == 0 {
				_ = n.Delete(word(rng))
			}
			if rng.Intn(4) == 0 {
				n.TransferComplete()
			}
		}
		src, sink := referenceRenderRows(n.source), referenceRenderRows(n.sink)
		if got := n.SourceRows(); got != src {
			t.Fatalf("seed %d: SourceRows %q, want %q", seed, got, src)
		}
		if got := n.SinkRows(); got != sink {
			t.Fatalf("seed %d: SinkRows %q, want %q", seed, got, sink)
		}
		if got, _ := n.Apply(replica.Op{Name: "readSource"}); got != src {
			t.Fatalf("seed %d: readSource %q, want %q", seed, got, src)
		}
		if got, want := n.Fingerprint(), "src{"+src+"}sink{"+sink+"}"; got != want {
			t.Fatalf("seed %d: Fingerprint %q, want %q", seed, got, want)
		}
	}
}
