package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/telemetry"
)

// The traced run. Nothing here reaches inside the engine: times come from
// spans this file records around public calls, counts from runner.Result,
// coordinator job status and a telemetry.Registry attached only here.

// span is one timed call. Spans of one interleaving share IL; Parent
// indexes the span that caused this one (-1 at the root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	IL     int32  `json:"il"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) begin(name string, parent int32, il int) int32 {
	t.spans = append(t.spans, span{Name: name, Parent: parent, IL: int32(il), Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) time.Duration {
	sp := &t.spans[id]
	sp.End = int64(time.Since(t.epoch))
	return time.Duration(sp.End - sp.Start)
}

// spanStat aggregates one span name under one root.
type spanStat struct {
	count int
	total int64
}

// under sums the spans below root (by any depth) by name.
func (t *tracer) under(root int32) map[string]spanStat {
	out := make(map[string]spanStat)
	// Spans are appended in start order, so a parent always precedes its
	// children and one forward sweep resolves membership.
	in := make(map[int32]bool, 1024)
	in[root] = true
	for i := int(root) + 1; i < len(t.spans); i++ {
		sp := t.spans[i]
		if !in[sp.Parent] {
			continue
		}
		in[int32(i)] = true
		st := out[sp.Name]
		st.count++
		st.total += sp.End - sp.Start
		out[sp.Name] = st
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerRow is one per-row (or per-workload) line of the layer table.
type layerRow struct {
	Metric string  `json:"metric"`
	Row    string  `json:"row"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Note   string  `json:"note,omitempty"`
}

// layers accumulates per-row values of per-layer metrics and folds them
// into the one number per metric the contract line carries.
type layers struct {
	rows   []layerRow
	byName map[string][]float64
}

func (l *layers) add(metric, row string, v float64, note string) {
	if l.byName == nil {
		l.byName = make(map[string][]float64)
	}
	unit := ""
	for _, d := range perLayer {
		if d.Name == metric {
			unit = d.Unit
		}
	}
	l.rows = append(l.rows, layerRow{metric, row, v, unit, note})
	l.byName[metric] = append(l.byName[metric], v)
}

// fold reduces the rows of each metric to the workload's one value.
func (l *layers) fold() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vs := l.byName[d.Name]
		switch d.Fold {
		case foldSum:
			out[d.Name] = sum(vs)
		case foldMean:
			out[d.Name] = mean(vs)
		default:
			out[d.Name] = geomean(vs)
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func wallsUS(ws []time.Duration) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = float64(w.Nanoseconds()) / 1e3
	}
	return out
}

// tracedRun is the state of one traced run: half its time goes to the
// stepper and the micro-drives (where the time goes inside one
// interleaving), half to the workload's own driver with a telemetry
// registry attached, alternated with untraced passes (what the avoidance
// layers did, and what tracing costs).
type tracedRun struct {
	*prepared
	tracer  *tracer
	layers  layers
	begin   time.Time
	seconds float64
	// sampleILs is the first row's explored interleavings, kept for the
	// journal micro-drive.
	sampleILs []interleave.Interleaving
}

func (tr *tracedRun) elapsed() float64 { return time.Since(tr.begin).Seconds() }

// runTraced produces the per-layer table of one workload.
func runTraced(w *workload, p int, seed int64, capIL int, seconds float64, traceOut string) (*runResult, error) {
	pr, err := prepare(w, p, seed, capIL)
	if err != nil {
		return nil, err
	}
	defer pr.env.close()
	pr.env.timeSleeps = true
	tr := &tracedRun{prepared: pr, tracer: newTracer(), begin: time.Now(), seconds: seconds}
	if err := tr.stepperPhase(seconds * 0.35); err != nil {
		return nil, err
	}
	overhead, err := tr.driverPhase()
	if err != nil {
		return nil, err
	}
	out := &runResult{Workload: w.name, Seed: seed, Trace: true, Seconds: seconds, Cap: capIL}
	out.Metrics = tr.layers.fold()
	// A share of a sum is not a mean of the rows' shares: replace the fold.
	out.Metrics["telemetry.overhead_share"] = overhead
	out.Layers = tr.layers.rows
	out.finish(tr.gate)
	if traceOut != "" {
		if err := tr.tracer.write(traceOut); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// counted is what the driver phase collected for one row.
type counted struct {
	// Pass wall times: the workload untraced and traced, the cap-seq
	// configuration of the row (base), and the workload's comparison
	// configuration (alt: one dist worker, or in-process live gates).
	plain, traced, base, alt []time.Duration
	// snap and res are the last traced pass's registry and result.
	snap         telemetry.Snapshot
	res          passResult
	lockRequests int64
}

// driverPhase runs the workload's own driver on every row, untraced and
// traced in turn, plus whichever comparison passes the workload's derived
// metrics need, until the run's time is used (at least twice). It returns
// the tracing overhead over all rows.
func (tr *tracedRun) driverPhase() (overhead float64, err error) {
	e, w, g, l := tr.env, tr.env.w, tr.gate, &tr.layers
	rows := make([]counted, len(e.rows))
	var sleepWall time.Duration
	var rttExecuted, rttSlept int64
	timed := func(r *row, ref *reference, opt passOpt, walls *[]time.Duration) (passResult, error) {
		runtime.GC()
		res, err := e.pass(r, opt)
		if err != nil {
			return res, err
		}
		if !opt.base {
			g.account(w, r, ref, res)
		}
		*walls = append(*walls, res.wall)
		return res, nil
	}
	for round := 0; round < 2 || (round < 50 && tr.elapsed() < tr.seconds); round++ {
		for i, r := range e.rows {
			c, ref := &rows[i], tr.refs[i]
			executed0, slept0 := e.rttExecuted.Load(), e.rttSlept.Load()
			res, err := timed(r, ref, passOpt{}, &c.plain)
			if err != nil {
				return 0, err
			}
			rttExecuted += e.rttExecuted.Load() - executed0
			rttSlept += e.rttSlept.Load() - slept0
			sleepWall += res.wall

			reg := telemetry.New()
			var requests atomic.Int64
			opt := passOpt{reg: reg}
			if w.driver == liveLock {
				opt.lockHook = func(string, []string) error { requests.Add(1); return nil }
				opt.turnWait = reg.Histogram("live.turn_wait_ns")
			}
			if c.res, err = timed(r, ref, opt, &c.traced); err != nil {
				return 0, err
			}
			c.snap, c.lockRequests = reg.Snapshot(), requests.Load()

			if w.vsSeq != "" || w.driver == distributed {
				if _, err := timed(r, ref, passOpt{base: true}, &c.base); err != nil {
					return 0, err
				}
			}
			switch w.driver {
			case distributed:
				_, err = timed(r, ref, passOpt{workers: 1}, &c.alt)
			case liveLock:
				_, err = timed(r, ref, passOpt{localGates: true}, &c.alt)
			}
			if err != nil {
				return 0, err
			}
		}
	}

	var plainSum, tracedSum float64
	var hits, misses, subsumed, explored float64
	var fullTables []string
	for i, r := range e.rows {
		c := rows[i]
		cnt := func(name string) float64 { return float64(c.snap.Counters[name]) }
		l.add("runner.events_executed", r.name, cnt("runner.events_executed"), "")
		l.add("runner.events_skipped", r.name, cnt("runner.events_skipped"), "")
		l.add("runner.prefix_evictions", r.name, cnt("runner.prefix_evictions"), "")
		l.add("runner.snapshot_bytes", r.name, float64(c.snap.Gauges["runner.snapshot_bytes"]), "")
		tableBytes := float64(c.snap.Gauges["runner.subsumption_table_bytes"])
		l.add("runner.subsumption_table_bytes", r.name, tableBytes, "")
		if tableBytes >= tableFullShare*accelBytes {
			fullTables = append(fullTables, r.name)
		}
		l.add("snapshot.dirty_replicas", r.name, cnt("snapshot.dirty_replicas"), "")
		l.add("snapshot.bytes_reused", r.name, cnt("snapshot.bytes_reused"), "")
		hits += cnt("runner.prefix_cache_hits")
		misses += cnt("runner.prefix_cache_misses")
		subsumed += float64(c.res.subsumed)
		explored += float64(c.res.explored)

		plain := wallsUS(c.plain)
		plainMed, tracedMed := median(plain), median(wallsUS(c.traced))
		plainSum += plainMed
		tracedSum += tracedMed
		spread := ratio(quantile(plain, 0.75)-quantile(plain, 0.25), plainMed)
		l.add("telemetry.overhead_share", r.name, ratio(tracedMed, plainMed)-1,
			fmt.Sprintf("traced %.0f us / untraced %.0f us over %d passes; untraced IQR/median %.3f", tracedMed, plainMed, len(plain), spread))

		// il/s of a pass of this row that took us microseconds.
		rate := func(us float64) float64 { return ratio(float64(c.res.il), us/1e6) }
		baseMed, altMed := median(wallsUS(c.base)), median(wallsUS(c.alt))
		if w.vsSeq != "" {
			l.add(w.vsSeq, r.name, ratio(baseMed, plainMed),
				fmt.Sprintf("this %.0f il/s / cap-seq %.0f il/s", rate(plainMed), rate(baseMed)))
		}
		switch w.driver {
		case distributed:
			l.add("coordinator.w1_vs_seq", r.name, ratio(baseMed, altMed),
				fmt.Sprintf("one worker %.0f il/s / cap-seq %.0f il/s", rate(altMed), rate(baseMed)))
			l.add("coordinator.ranges", r.name, cnt("coordinator.ranges_committed"), "")
			l.add("coordinator.requeues", r.name, float64(c.res.requeues), "")
		case liveLock:
			l.add("lockserver.requests_per_il", r.name, ratio(float64(c.lockRequests), float64(c.res.explored)), "")
			l.add("proxy.turn_wait_p50_us", r.name, float64(c.snap.Histograms["live.turn_wait_ns"].Quantile(0.5))/1e3, "")
			l.add("runner.live_local_il_per_s", r.name, rate(altMed),
				fmt.Sprintf("wire share %.2f = 1 - gated / local", 1-ratio(altMed, plainMed)))
		}
	}
	if w.accel {
		l.add("runner.prefix_hit_share", "all", ratio(hits, hits+misses), "")
		l.add("runner.subsumed_share", "all", ratio(subsumed, explored), "")
		l.add("runner.subsumption_full_share", "all", ratio(float64(len(fullTables)), float64(len(e.rows))),
			fmt.Sprintf("rows whose table reached its budget (and evicts): %v", fullTables))
	}
	if w.rtt {
		l.add("rtt.executed", "all", float64(rttExecuted), "over the untraced passes")
		l.add("rtt.sleep_share", "all", ratio(float64(rttSlept)/float64(e.p), float64(sleepWall.Nanoseconds())),
			fmt.Sprintf("mean sleep %.0f us for a %v request", ratio(float64(rttSlept), float64(rttExecuted))/1e3, rttSleep))
	}
	switch w.driver {
	case liveLock:
		p50, p99, err := pingCosts(e.lockAddr, 2000)
		if err != nil {
			return 0, err
		}
		l.add("lockserver.roundtrip_p50_us", "all", p50, "2000 pings")
		l.add("lockserver.roundtrip_p99_us", "all", p99, "")
	case distributed:
		ns, err := journalAppendNS(tr.sampleILs)
		if err != nil {
			return 0, err
		}
		l.add("checkpoint.append_ns", "all", ns, fmt.Sprintf("%d appends + flush", len(tr.sampleILs)))
	}
	return ratio(tracedSum, plainSum) - 1, nil
}
