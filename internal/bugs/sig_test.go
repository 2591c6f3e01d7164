package bugs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/runner"
)

// The string signatures as they were before signatures were appended into
// a buffer: the reference the appenders must equal byte for byte.

func refFullSig(o *runner.Outcome) string {
	return strings.Join([]string{refObsPart(o, nil), refFpPart(o), refFailedPart(o)}, "|")
}

func refObsSig(events ...event.ID) func(*runner.Outcome) string {
	return func(o *runner.Outcome) string { return refObsPart(o, events) }
}

func refContentSet(o *runner.Outcome, ev event.ID) string {
	got, ok := o.Observations[ev]
	if !ok {
		return "<none>"
	}
	items := strings.Split(got, ",")
	sort.Strings(items)
	return strings.Join(items, ",")
}

func refObsPart(o *runner.Outcome, only []event.ID) string {
	var keys []int
	if only == nil {
		for id := range o.Observations {
			keys = append(keys, int(id))
		}
	} else {
		for _, id := range only {
			keys = append(keys, int(id))
		}
	}
	sort.Ints(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		v, ok := o.Observations[event.ID(k)]
		if !ok {
			v = "<none>"
		}
		parts = append(parts, fmt.Sprintf("ev%d=%s", k, v))
	}
	return strings.Join(parts, ";")
}

func refFpPart(o *runner.Outcome) string {
	var reps []string
	for r := range o.Fingerprints {
		reps = append(reps, string(r))
	}
	sort.Strings(reps)
	parts := make([]string, 0, len(reps))
	for _, r := range reps {
		parts = append(parts, r+"="+o.Fingerprints[event.ReplicaID(r)])
	}
	return strings.Join(parts, ";")
}

func refFailedPart(o *runner.Outcome) string {
	xs := make([]int, 0, len(o.FailedOps))
	for _, id := range o.FailedOps {
		xs = append(xs, int(id))
	}
	sort.Ints(xs)
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "failed[" + strings.Join(parts, ",") + "]"
}

// refSigs is each Table-1 row's signature in the reference form.
var refSigs = map[string]func(*runner.Outcome) string{
	"Roshi-1":   refFullSig,
	"Roshi-2":   refFullSig,
	"Roshi-3":   refFullSig,
	"OrbitDB-1": refObsSig(10),
	"OrbitDB-2": refObsSig(1, 3),
	"OrbitDB-3": func(o *runner.Outcome) string {
		return refFailedPart(o) + "|" + refContentSet(o, 12) + "|" + refContentSet(o, 14)
	},
	"OrbitDB-4":   refFullSig,
	"OrbitDB-5":   refFullSig,
	"ReplicaDB-1": refObsSig(8, 9),
	"ReplicaDB-2": func(o *runner.Outcome) string {
		return refObsPart(o, []event.ID{13}) + "|" + refFpPart(o)
	},
	"Yorkie-1": func(o *runner.Outcome) string {
		return refObsPart(o, []event.ID{16}) + "|converged=" + strconv.FormatBool(o.Converged)
	},
	"Yorkie-2": refFullSig,
}

// TestSignatureMatchesReference pins the appended signature — what the
// manifestation assertion compares — and Sig, which reports and violation
// text use, to the reference strings over the first 500 interleavings of
// every Table-1 row.
func TestSignatureMatchesReference(t *testing.T) {
	for _, b := range All() {
		ref, ok := refSigs[b.Name]
		if !ok {
			t.Fatalf("%s: no reference signature", b.Name)
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var w sigBuf
		seen := 0
		_, err = runner.Run(s, runner.Config{
			MaxInterleavings: 500,
			Workers:          1,
			OnOutcome: func(o *runner.Outcome) {
				seen++
				want := ref(o)
				w.b = w.b[:0]
				b.sig(&w, o)
				if string(w.b) != want {
					t.Errorf("%s #%d: appended signature %q, want %q", b.Name, o.Index, w.b, want)
				}
				if got := b.Sig(o); got != want {
					t.Errorf("%s #%d: Sig %q, want %q", b.Name, o.Index, got, want)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen == 0 {
			t.Errorf("%s: no outcomes", b.Name)
		}
	}
}
