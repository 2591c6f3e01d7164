package coordinator

import (
	"fmt"
	"time"

	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/miscon"
	"github.com/er-pi/erpi/internal/runner"
)

// JobSpec names a workload plus the exploration parameters that must be
// identical on the coordinator (which enumerates) and every worker (which
// executes). It is deliberately data-only — a bug or misconception name,
// not a Scenario — so it serializes into the hello handshake and the
// per-job manifest, and so a coordinator restart rebuilds the exact same
// scenario from it.
type JobSpec struct {
	// Bug names a Table-1 bug benchmark (e.g. "Roshi-1"). Exactly one of
	// Bug and Miscon must be set.
	Bug string `json:"bug,omitempty"`
	// Miscon names a Table-2 misconception scenario (e.g. "CRDTs#4").
	Miscon string `json:"miscon,omitempty"`
	// Mode is the exploration mode (default "erpi"). ModeFuzz distributes
	// by generation: the coordinator owns the corpus, carves each
	// generation's children into leased ranges, classifies the reported
	// signatures in carve order, and evolves the corpus only when a whole
	// generation has aggregated — so the corpus trajectory matches an
	// in-process run with the same seed exactly.
	Mode string `json:"mode,omitempty"`
	// Seed drives rand/fuzz-mode enumeration and retry jitter.
	Seed int64 `json:"seed,omitempty"`
	// FuzzGenerationSize fixes ModeFuzz's generation size (0 = adaptive);
	// runner.Config.FuzzGenerationSize semantics. Part of the spec because
	// coordinator and resumed coordinators must synthesize identical
	// generations.
	FuzzGenerationSize int `json:"fuzz_generation_size,omitempty"`
	// MaxInterleavings caps the job (0 = runner default; negative =
	// unbounded). Like the runner's, the cap is session-wide: journaled
	// interleavings count toward it across coordinator restarts.
	MaxInterleavings int `json:"max_interleavings,omitempty"`
	// RangeSize overrides the service's default lease granularity.
	RangeSize int `json:"range_size,omitempty"`
	// StopOnViolation ends the job at the first assertion failure.
	StopOnViolation bool `json:"stop_on_violation,omitempty"`
	// MaxRetries / InterleavingTimeoutMs tune worker-side execution
	// (runner.Config semantics; 0 retries means the default of 1).
	MaxRetries            int   `json:"max_retries,omitempty"`
	InterleavingTimeoutMs int64 `json:"interleaving_timeout_ms,omitempty"`
	// SubsumptionTableBytes, when > 0, enables state-subsumption pruning
	// on every worker and bounds each worker's table (runner.Config's
	// SubsumptionTable): each worker process keeps a private
	// visited-frontier table and reports skipped interleavings as subsumed
	// (no outcome, no digest entry). Lexicographic modes only — the runner
	// ignores it for rand and fuzz.
	SubsumptionTableBytes int64 `json:"subsumption_table_bytes,omitempty"`
}

// Build validates the spec — exactly one of bug or miscon, a known mode
// (an empty one becomes erpi) — and resolves its named workload into the
// scenario and fresh assertion instances. Every front end calls it: the
// coordinator for enumeration and assertion checking, each worker for
// execution (assertions are checked only on the coordinator, in index
// order, which the rule on runner.Assertion relies on), and erpi for a
// local run of the spec it would otherwise submit.
func (sp *JobSpec) Build() (runner.Scenario, []runner.Assertion, error) {
	if (sp.Bug == "") == (sp.Miscon == "") {
		return runner.Scenario{}, nil, fmt.Errorf("coordinator: spec must name exactly one of bug or miscon")
	}
	if sp.Mode == "" {
		sp.Mode = string(runner.ModeERPi)
	}
	switch runner.Mode(sp.Mode) {
	case runner.ModeERPi, runner.ModeDFS, runner.ModeRand, runner.ModeFuzz:
	default:
		return runner.Scenario{}, nil, fmt.Errorf("coordinator: unknown mode %q", sp.Mode)
	}
	if sp.Bug != "" {
		b, ok := bugs.ByName(sp.Bug)
		if !ok {
			return runner.Scenario{}, nil, fmt.Errorf("coordinator: unknown bug %q", sp.Bug)
		}
		asserts, err := b.NewAssertions()
		if err != nil {
			return runner.Scenario{}, nil, err
		}
		s, err := b.Build()
		return s, asserts, err
	}
	for _, sc := range miscon.All() {
		if sc.Name() == sp.Miscon {
			s, err := sc.Build()
			return s, sc.NewAssertions(), err
		}
	}
	return runner.Scenario{}, nil, fmt.Errorf("coordinator: unknown misconception %q", sp.Miscon)
}

// Config is the one mapping of the spec onto runner.Config. The
// coordinator builds its explorer and ledger from it, each worker its
// executor, and erpi its local run; each ignores the fields it does not
// honor. RangeSize is the service's alone.
func (sp *JobSpec) Config() runner.Config {
	return runner.Config{
		Mode:                runner.Mode(sp.Mode),
		Seed:                sp.Seed,
		FuzzGenerationSize:  sp.FuzzGenerationSize,
		MaxInterleavings:    sp.MaxInterleavings,
		StopOnViolation:     sp.StopOnViolation,
		MaxRetries:          sp.MaxRetries,
		InterleavingTimeout: time.Duration(sp.InterleavingTimeoutMs) * time.Millisecond,
		SubsumptionTable:    sp.SubsumptionTableBytes,
	}
}

// label names the workload for status displays.
func (sp *JobSpec) label() string {
	if sp.Bug != "" {
		return sp.Bug
	}
	return sp.Miscon
}
