// Command benchgate compares a `go test -bench` run against a committed
// baseline JSON (BENCH_*.json) and fails the build on performance
// regressions. Each rule applies to a benchmark's median over the samples
// in the run, so run it with -count=N (N odd, ≥ 5) to outvote noise:
//
//   - ns/op may not regress by more than -tolerance (default 30%) over the
//     baseline for any benchmark present in the baseline;
//   - a benchmark whose baseline records 0 allocs/op may not allocate at
//     all — those are the steady-state hot paths, and a single alloc/op is
//     a structural regression no timing tolerance should forgive.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count=5 ./internal/gf256 ... | benchgate -baseline BENCH_coding.json
//	benchgate -baseline BENCH_coding.json -input bench.txt
//	benchgate -baseline BENCH_coding.json -input bench.txt -update   # rewrite baseline from run
//
// Benchmarks in the run but absent from the baseline are ignored (new
// benchmarks don't break the gate until they are enrolled); benchmarks in
// the baseline but absent from the run fail it, so coverage cannot rot
// silently.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"p2pcollect/internal/benchcmp"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "path to the committed BENCH_*.json baseline (required)")
		inputPath    = flag.String("input", "-", "go test -bench output to check; - reads stdin")
		tolerance    = flag.Float64("tolerance", 0.30, "allowed fractional ns/op regression (0.30 = 30%)")
		update       = flag.Bool("update", false, "rewrite the baseline's numbers from this run instead of checking")
	)
	flag.Parse()
	if *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline is required")
		os.Exit(2)
	}

	baseline, err := benchcmp.LoadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	run, err := benchcmp.ParseBenchOutput(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	if *update {
		if err := baseline.UpdateFrom(run, *baselinePath); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: rewrote %s from %d measured benchmarks\n", *baselinePath, len(run))
		return
	}

	report := benchcmp.Compare(baseline, run, *tolerance)
	for _, line := range report.Lines {
		fmt.Println(line)
	}
	if len(report.Problems) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchgate: FAIL — %d problem(s):\n", len(report.Problems))
		for _, p := range report.Problems {
			fmt.Fprintf(os.Stderr, "  %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok — %d benchmark(s) within tolerance %.0f%%\n", report.Checked, *tolerance*100)
}
