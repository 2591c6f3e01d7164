package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/er-pi/erpi/internal/coordinator"
	"github.com/er-pi/erpi/internal/runner"
)

// sigs collects what a pass's outcomes were, two ways: keyed (interleaving
// key -> signature, the coordinator's order-insensitive digest) and as the
// bare set of distinct signatures, which is all subsumption preserves.
type sigs struct {
	keyed *coordinator.Digest
	mu    sync.Mutex
	set   map[string]struct{}
}

func newSigs() *sigs {
	return &sigs{keyed: coordinator.NewDigest(), set: make(map[string]struct{})}
}

func (s *sigs) observe(o *runner.Outcome) {
	s.keyed.Observe(o)
	s.add(runner.OutcomeSignature(o))
}

func (s *sigs) add(sig string) {
	s.mu.Lock()
	s.set[sig] = struct{}{}
	s.mu.Unlock()
}

// setDigest is a sha256 over the sorted distinct signatures.
func (s *sigs) setDigest() string {
	s.mu.Lock()
	all := make([]string, 0, len(s.set))
	for sig := range s.set {
		all = append(all, sig)
	}
	s.mu.Unlock()
	sort.Strings(all)
	h := sha256.New()
	for _, sig := range all {
		io.WriteString(h, sig)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reference is what the cap-seq configuration produced for one row and
// seed; every other configuration's verdicts are checked against it.
type reference struct {
	explored int
	keyed    string
	set      string
	distinct int
}

// gate is the correctness ledger of a run: every interleaving attempted
// and every verdict check, and how many of them went wrong.
type gate struct {
	attempted int
	failed    int
	notes     []string // distinct, in order of first appearance
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		g.note(fmt.Sprintf(format, args...))
	}
}

func (g *gate) note(msg string) {
	for _, n := range g.notes {
		if n == msg {
			return
		}
	}
	g.notes = append(g.notes, msg)
}

// account books one pass: its interleavings, its execution failures, and
// the verdict checks that need no outcome hook.
func (g *gate) account(w *workload, r *row, ref *reference, res passResult) {
	g.attempted += res.explored
	g.failed += res.failed
	if res.failed > 0 {
		g.note(fmt.Sprintf("%s/%s: %d interleavings quarantined or run failed", w.name, r.name, res.failed))
	}
	if w.stop {
		g.check(res.firstViolation == pinnedFirstViolation[r.name],
			"%s/%s: first violation at %d, pinned %d", w.name, r.name, res.firstViolation, pinnedFirstViolation[r.name])
		return
	}
	g.check(res.explored == ref.explored, "%s/%s: explored %d, reference %d", w.name, r.name, res.explored, ref.explored)
	if !w.accel {
		g.check(res.subsumed == 0, "%s/%s: %d subsumed with accelerators off", w.name, r.name, res.subsumed)
	}
}

// verify runs one untimed pass of the workload's own configuration with an
// outcome hook and compares what it saw with the reference.
func (g *gate) verify(e *env, r *row, ref *reference) error {
	got := newSigs()
	res, err := e.pass(r, passOpt{observe: got.observe})
	if err != nil {
		return err
	}
	g.account(e.w, r, ref, res)
	switch {
	case e.w.stop:
	case e.w.driver == distributed:
		g.check(res.digest == ref.keyed, "%s/%s: job digest %.12s, reference %.12s", e.w.name, r.name, res.digest, ref.keyed)
	case e.w.accel:
		g.check(got.setDigest() == ref.set, "%s/%s: signature set %.12s, reference %.12s", e.w.name, r.name, got.setDigest(), ref.set)
	default:
		g.check(got.keyed.Sum() == ref.keyed, "%s/%s: outcome digest %.12s, reference %.12s", e.w.name, r.name, got.keyed.Sum(), ref.keyed)
	}
	return nil
}

// makeReference runs the cap-seq configuration on the row with an outcome
// hook. Stop rows have no reference: their verdict is the pinned table.
func makeReference(e *env, r *row) (*reference, error) {
	if e.w.stop {
		return &reference{}, nil
	}
	got := newSigs()
	res, err := e.pass(r, passOpt{base: true, observe: got.observe})
	if err != nil {
		return nil, err
	}
	if res.failed > 0 {
		return nil, fmt.Errorf("%s: reference pass quarantined %d interleavings", r.name, res.failed)
	}
	return &reference{
		explored: res.explored,
		keyed:    got.keyed.Sum(),
		set:      got.setDigest(),
		distinct: len(got.set),
	}, nil
}

// rowStats is one row's line of the end-to-end report.
type rowStats struct {
	Row       string  `json:"row"`
	Passes    int     `json:"passes"`
	IL        int     `json:"interleavings"`
	Subsumed  int     `json:"subsumed"`
	MedianUS  float64 `json:"median_us"`
	P90US     float64 `json:"p90_us,omitempty"`
	Q1US      float64 `json:"q1_us"`
	Q3US      float64 `json:"q3_us"`
	ILPerS    float64 `json:"il_per_s"`
	Distinct  int     `json:"distinct_signatures,omitempty"`
	Reference string  `json:"reference_digest,omitempty"`
}

// runResult is one (workload, seed, trace) run, the unit -out appends and
// -compare reads.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Cap       int                `json:"cap"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailShare float64            `json:"fail_share"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Rows      []rowStats         `json:"rows,omitempty"`
	Layers    []layerRow         `json:"layer_rows,omitempty"`
}

// prepared is a workload ready to be measured: servers up, references
// computed, every row warmed and verified once under the workload's own
// configuration.
type prepared struct {
	env  *env
	refs []*reference
	gate *gate
}

// prepare is the set-up phase: everything between process start and the
// first timed pass. The verification pass doubles as the warm-up — it runs
// the workload's exact configuration over the full cap, so caches, pools
// and lazy initialisation are all paid before the clock starts.
func prepare(w *workload, p int, seed int64, capIL int) (*prepared, error) {
	e, err := newEnv(w, p, seed, capIL)
	if err != nil {
		return nil, err
	}
	pr := &prepared{env: e, gate: &gate{}}
	for _, r := range e.rows {
		ref, err := makeReference(e, r)
		if err != nil {
			e.close()
			return nil, err
		}
		pr.refs = append(pr.refs, ref)
		if err := pr.gate.verify(e, r, ref); err != nil {
			e.close()
			return nil, err
		}
	}
	return pr, nil
}

// Set-up is repeated, up to maxSetups times, while all set-ups so far took
// less than setupBudget seconds together.
const (
	maxSetups   = 5
	setupBudget = 1.0
)

// runUntraced measures the end-to-end metrics of one workload: set-up,
// then timed passes round-robin over the rows for `seconds` (and at least
// the workload's minimum pass count), with no hook and no telemetry.
func runUntraced(w *workload, p int, seed int64, capIL int, seconds float64, begin time.Time) (*runResult, error) {
	pr, err := prepare(w, p, seed, capIL)
	if err != nil {
		return nil, err
	}
	// A set-up of a tenth of a second (ttfv) is mostly process start and
	// first-touch costs, and moves 25 % from run to run; repeat cheap
	// set-ups and report their median. Set-ups of seconds are one sample.
	setups := []float64{time.Since(begin).Seconds()}
	for len(setups) < maxSetups && sum(setups) < setupBudget {
		pr.env.close()
		again := time.Now()
		if pr, err = prepare(w, p, seed, capIL); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(again).Seconds())
	}
	e := pr.env
	defer e.close()

	walls := make([][]time.Duration, len(e.rows))
	last := make([]passResult, len(e.rows))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	timedStart := time.Now()
	totalIL := 0
	for round := 0; ; round++ {
		if round >= w.minPasses && time.Since(timedStart).Seconds() >= seconds {
			break
		}
		// Start every round from a collected heap so a pass's time does not
		// depend on how much garbage its predecessors left.
		runtime.GC()
		for i, r := range e.rows {
			res, err := e.pass(r, passOpt{})
			if err != nil {
				return nil, err
			}
			pr.gate.account(w, r, pr.refs[i], res)
			walls[i] = append(walls[i], res.wall)
			last[i] = res
			totalIL += res.il
		}
	}
	runtime.ReadMemStats(&after)

	out := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Cap: capIL}
	var medians, rates []float64
	sumIL := 0
	for i, r := range e.rows {
		us := wallsUS(walls[i])
		med := median(us)
		rs := rowStats{
			Row:       r.name,
			Passes:    len(us),
			IL:        last[i].il,
			Subsumed:  last[i].subsumed,
			MedianUS:  med,
			Q1US:      quantile(us, 0.25),
			Q3US:      quantile(us, 0.75),
			ILPerS:    float64(last[i].il) / (med / 1e6),
			Distinct:  pr.refs[i].distinct,
			Reference: pr.refs[i].keyed,
		}
		// A p90 needs at least ten samples beyond it.
		if len(us) >= 100 {
			rs.P90US = quantile(us, 0.9)
		}
		out.Rows = append(out.Rows, rs)
		medians = append(medians, med)
		rates = append(rates, rs.ILPerS)
		sumIL += last[i].il
	}
	out.Metrics = map[string]float64{
		"setup_s":            median(setups),
		"pass_us":            geomean(medians),
		"il_per_s":           geomean(rates),
		"interleavings":      float64(sumIL),
		"allocs_per_il":      float64(after.Mallocs-before.Mallocs) / float64(totalIL),
		"alloc_bytes_per_il": float64(after.TotalAlloc-before.TotalAlloc) / float64(totalIL),
	}
	out.finish(pr.gate)
	return out, nil
}

func (r *runResult) finish(g *gate) {
	r.Attempted, r.Failed, r.Notes = g.attempted, g.failed, g.notes
	r.Correct = g.failed == 0
	if g.attempted > 0 {
		r.FailShare = float64(g.failed) / float64(g.attempted)
	}
}
