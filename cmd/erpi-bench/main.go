// Command erpi-bench regenerates every table and figure of the ER-π
// paper's evaluation (§6):
//
//	erpi-bench -all           # everything (several minutes)
//	erpi-bench -table1        # Table 1: bug benchmarks
//	erpi-bench -table2        # Table 2: misconception detection
//	erpi-bench -fig8          # Figure 8a+8b: interleavings & time per bug/mode
//	erpi-bench -fig9          # Figure 9: per-algorithm pruning contribution
//	erpi-bench -fig10         # Figure 10: succeed-or-crash micro-benchmark
//	erpi-bench -fuzzext       # extension: fuzzing vs Rand on the Rand-hard bugs
//
// Any mode accepts -cpuprofile/-memprofile to capture pprof profiles of
// the whole invocation. Engine performance — time to violation and to the
// cap, per driver and per layer — is measured by benchmark/ (see
// benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/er-pi/erpi/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		all     = flag.Bool("all", false, "regenerate every table and figure")
		table1  = flag.Bool("table1", false, "Table 1: bug benchmarks")
		table2  = flag.Bool("table2", false, "Table 2: misconception detection")
		fig8    = flag.Bool("fig8", false, "Figure 8a/8b: reproduction cost per bug and mode")
		fig9    = flag.Bool("fig9", false, "Figure 9: pruning ablation")
		fig10   = flag.Bool("fig10", false, "Figure 10: succeed-or-crash")
		fuzzx   = flag.Bool("fuzzext", false, "extension: fuzzing vs Rand on the Rand-hard bugs")
		cap     = flag.Int("cap", bench.Cap, "exploration cap (Figure 8)")
		seed    = flag.Int64("seed", 1, "seed for the Rand baseline and sampling")
		runs    = flag.Int("runs", 5, "runs per mode (Figure 10)")
		budget  = flag.Int("budget", bench.DefaultFig10Budget, "fact budget (Figure 10): each mode explores at most budget / (1 + events) interleavings")
		sample  = flag.Int("sample", 20000, "sampling size for Figure 9 estimates")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this path")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this path")
	)
	flag.Parse()
	if !*all && !*table1 && !*table2 && !*fig8 && !*fig9 && !*fig10 && !*fuzzx {
		flag.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "erpi-bench:", err)
		return 1
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "erpi-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "erpi-bench:", err)
			}
		}()
	}
	if *all || *table1 {
		rows, err := bench.RunTable1()
		if err != nil {
			return fail(err)
		}
		if err := bench.WriteTable1(os.Stdout, rows); err != nil {
			return fail(err)
		}
		fmt.Println()
	}
	if *all || *table2 {
		cells, err := bench.RunTable2()
		if err != nil {
			return fail(err)
		}
		if err := bench.WriteTable2(os.Stdout, cells); err != nil {
			return fail(err)
		}
		fmt.Println()
	}
	if *all || *fig8 {
		res, err := bench.RunFig8(*cap, *seed, flag.Args()...)
		if err != nil {
			return fail(err)
		}
		fmt.Println(res.Render())
	}
	if *all || *fig9 {
		rows, err := bench.RunFig9(*sample, *seed)
		if err != nil {
			return fail(err)
		}
		if err := bench.WriteFig9(os.Stdout, rows); err != nil {
			return fail(err)
		}
		fmt.Println()
	}
	if *all || *fig10 {
		rows, err := bench.RunFig10(*runs, *budget)
		if err != nil {
			return fail(err)
		}
		if err := bench.WriteFig10(os.Stdout, rows); err != nil {
			return fail(err)
		}
		fmt.Println()
	}
	if *all || *fuzzx {
		rows, err := bench.RunFuzzExt(3, *cap)
		if err != nil {
			return fail(err)
		}
		if err := bench.WriteFuzzExt(os.Stdout, rows); err != nil {
			return fail(err)
		}
		fmt.Println()
	}
	return 0
}
