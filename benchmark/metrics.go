package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer table.
// The tables live here, in code, because the harness and -compare both
// need them; smoke_test.go pins them against BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base median by which an end-to-end metric
	// may worsen before -compare (and the driver) call it a regression.
	// Zero for per-layer metrics, which are explanations, not gates.
	Bound float64
	// Fold says how a per-layer metric's per-row values become the one
	// value the contract line carries.
	Fold fold
}

// fold is how the rows of a per-layer metric reduce to one number.
type fold int

const (
	// foldGeomean, the default: times, ratios and per-interleaving counts.
	// Rows differ 20x in cost, so an arithmetic mean would be the Yorkie row
	// alone. A row that reports 0 does not exercise the layer and is left
	// out; such a metric is never negative.
	foldGeomean fold = iota
	// foldSum: counts that add up over the rows (events executed, bytes held).
	foldSum
	// foldMean: differences, which may be negative on a row where the model
	// behind the subtraction fails. Every row counts, with its sign.
	foldMean
)

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of ER-π sees. Every workload reports every one.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "pass_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "il_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "interleavings", Unit: "count", Better: lower, Bound: 0.001},
	{Name: "allocs_per_il", Unit: "count", Better: lower, Bound: 0.02},
	{Name: "alloc_bytes_per_il", Unit: "B", Better: lower, Bound: 0.02},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

func total(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Fold: foldSum}
}

func difference(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Fold: foldMean}
}

// perLayer is the traced run's table. A layer the workload does not
// exercise reports 0 (the lock server on cap-seq, the prefix cache on
// cap-pool): "must be zero" is itself a prediction the table checks.
var perLayer = []metricDef{
	layer("bugs.build_us", "us", lower),
	layer("prune.build_us", "us", lower),
	layer("runner.new_executor_us", "us", lower),
	layer("interleave.next_ns", "ns", lower),
	layer("interleave.key_ns", "ns", lower),
	total("interleave.generated", "count", lower),
	layer("runner.execute_ns", "ns", lower),
	layer("runner.execute_allocs", "count", lower),
	difference("runner.execute_self_ns", "ns", lower),
	layer("check.assert_ns", "ns", lower),
	layer("subjects.event_ns", "ns", lower),
	layer("subjects.sync_ns", "ns", lower),
	layer("subjects.snapshot_ns", "ns", lower),
	layer("subjects.finalize_ns", "ns", lower),
	layer("replica.reset_ns", "ns", lower),
	layer("replica.snapshot_ns", "ns", lower),
	layer("replica.restore_ns", "ns", lower),
	layer("replica.fingerprints_ns", "ns", lower),
	total("snapshot.dirty_replicas", "count", lower),
	total("snapshot.bytes_reused", "B", higher),
	total("runner.events_executed", "count", lower),
	total("runner.events_skipped", "count", higher),
	layer("runner.prefix_hit_share", "ratio", higher),
	total("runner.prefix_evictions", "count", lower),
	total("runner.snapshot_bytes", "B", lower),
	layer("runner.subsumed_share", "ratio", higher),
	total("runner.subsumption_table_bytes", "B", lower),
	layer("runner.subsumption_full_share", "ratio", lower),
	layer("runner.accel_speedup", "ratio", higher),
	layer("runner.pool_speedup", "ratio", higher),
	layer("runner.run_over_stepper", "ratio", lower),
	total("rtt.executed", "count", lower),
	layer("rtt.sleep_share", "ratio", higher),
	layer("lockserver.roundtrip_p50_us", "us", lower),
	layer("lockserver.roundtrip_p99_us", "us", lower),
	layer("lockserver.requests_per_il", "count", lower),
	layer("proxy.turn_wait_p50_us", "us", lower),
	layer("runner.live_local_il_per_s", "1/s", higher),
	layer("coordinator.w1_vs_seq", "ratio", higher),
	total("coordinator.ranges", "count", lower),
	total("coordinator.requeues", "count", lower),
	layer("checkpoint.append_ns", "ns", lower),
	difference("telemetry.overhead_share", "ratio", lower),
}

// quantile returns the q-quantile of vs (q in [0,1]) the way Python's
// statistics.quantiles does by default — position q*(n+1) among the sorted
// values, interpolated, clamped to the ends — so that a quartile spread
// computed here is the one the driver computes. 0 for an empty slice.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1 // 0-based
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	lo := int(math.Floor(pos))
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// geomean is the geometric mean of the positive values in vs. Zeros are
// skipped (see foldGeomean); an empty input gives 0. A metric that can go
// negative must not be folded with it.
func geomean(vs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return sum(vs) / float64(len(vs))
}

func sum(vs []float64) float64 {
	total := 0.0
	for _, v := range vs {
		total += v
	}
	return total
}
