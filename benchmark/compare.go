package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// sample is every value one -out file holds for one (workload, metric).
type sample []float64

func (s sample) quartiles() (q1, med, q3 float64) {
	return quantile(s, 0.25), median(s), quantile(s, 0.75)
}

// spread is the interquartile distance as a share of the median.
func (s sample) spread() float64 {
	q1, med, q3 := s.quartiles()
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// minSamples is the fewest runs a side needs before its quartiles mean
// anything: with fewer, every verdict is "unresolved".
const minSamples = 3

// runBlock is what every record of the files being compared must agree on:
// the host, and the run parameters that move the numbers.
type runBlock struct {
	host    hostBlock
	cap     int
	seconds float64
}

func blockOf(rec record) runBlock {
	h := rec.Host
	// Commit and start time are what is being compared.
	h.Commit, h.Start = "", ""
	return runBlock{h, rec.Cap, rec.Seconds}
}

// runSet is one -out file: its run block, its samples keyed by trace mode,
// workload and metric, and its correctness ledger per workload.
type runSet struct {
	block     runBlock
	commit    string
	samples   map[bool]map[string]map[string]sample
	failed    map[string]int
	attempted map[string]int
	runs      int
}

func (s *runSet) failShare(workload string) float64 {
	return ratio(float64(s.failed[workload]), float64(s.attempted[workload]))
}

func readRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &runSet{
		samples:   map[bool]map[string]map[string]sample{false: {}, true: {}},
		failed:    make(map[string]int),
		attempted: make(map[string]int),
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Workload == "" {
			return nil, fmt.Errorf("%s: record without a run", path)
		}
		if set.runs == 0 {
			set.block, set.commit = blockOf(rec), rec.Host.Commit
		} else if b := blockOf(rec); b != set.block {
			return nil, fmt.Errorf("%s mixes hosts or run parameters: %+v and %+v", path, set.block, b)
		}
		set.runs++
		set.failed[rec.Workload] += rec.Failed
		set.attempted[rec.Workload] += rec.Attempted
		byWorkload := set.samples[rec.Trace]
		if byWorkload[rec.Workload] == nil {
			byWorkload[rec.Workload] = make(map[string]sample)
		}
		for name, v := range rec.Metrics {
			byWorkload[rec.Workload][name] = append(byWorkload[rec.Workload][name], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if set.runs == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return set, nil
}

// verdict classifies one end-to-end metric of one workload: how much worse
// the candidate's median is than the base's, as a share of the base, set
// against the metric's bound and both sides' run-to-run spread.
func verdict(d metricDef, base, cand sample) (worse float64, v string) {
	_, bm, _ := base.quartiles()
	_, cm, _ := cand.quartiles()
	if bm == 0 {
		return 0, "unresolved"
	}
	worse = cm/bm - 1
	if d.Better == higher {
		worse = 1 - cm/bm
	}
	spread := max(base.spread(), cand.spread())
	switch {
	case len(base) < minSamples || len(cand) < minSamples:
		return worse, "unresolved"
	case worse > d.Bound && worse > spread:
		return worse, "regressed"
	case spread > d.Bound:
		return worse, "unresolved"
	default:
		return worse, "ok"
	}
}

// compareFiles prints, per (metric, workload), both medians with their
// quartiles and the candidate/base ratio; end-to-end metrics also get a
// verdict. It reports whether anything regressed.
func compareFiles(w io.Writer, basePath, candPath string) (regressed bool, err error) {
	base, err := readRunSet(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readRunSet(candPath)
	if err != nil {
		return false, err
	}
	if base.block != cand.block {
		return false, fmt.Errorf("hosts or run parameters differ, nothing is comparable:\n  base      %+v\n  candidate %+v", base.block, cand.block)
	}
	fmt.Fprintf(w, "base %s: %d runs, commit %s; candidate %s: %d runs, commit %s\n",
		basePath, base.runs, base.commit, candPath, cand.runs, cand.commit)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tcandidate median [q1, q3]\tcandidate/base\tverdict")
	for _, traced := range []bool{false, true} {
		for _, wl := range workloads {
			for _, d := range defsFor(traced) {
				b, c := base.samples[traced][wl.name][d.Name], cand.samples[traced][wl.name][d.Name]
				if b == nil || c == nil {
					continue
				}
				bq1, bm, bq3 := b.quartiles()
				cq1, cm, cq3 := c.quartiles()
				v := "-"
				if !traced {
					var worse float64
					worse, v = verdict(d, b, c)
					if v == "regressed" {
						regressed = true
						v = fmt.Sprintf("regressed (%.1f%% worse, bound %.1f%%)", worse*100, d.Bound*100)
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%.4f of %.6g\t%s\n",
					wl.name, d.Name, d.Unit, bm, bq1, bq3, cm, cq1, cq3, ratio(cm, bm), bm, v)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	for _, wl := range workloads {
		// fail_share has no bound: any increase is a regression. Shares, not
		// counts: the two files may hold different numbers of runs.
		if cand.failShare(wl.name) > base.failShare(wl.name) {
			regressed = true
			fmt.Fprintf(w, "%s: fail_share regressed: %.6g (%d / %d) in the candidate, %.6g (%d / %d) in the base\n",
				wl.name, cand.failShare(wl.name), cand.failed[wl.name], cand.attempted[wl.name],
				base.failShare(wl.name), base.failed[wl.name], base.attempted[wl.name])
		}
	}
	return regressed, nil
}
