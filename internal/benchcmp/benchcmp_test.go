package benchcmp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: p2pcollect/internal/gf256
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDot1K-4         	 3110834	       385.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkAddMulSlice1K-4 	16941818	        70.91 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	p2pcollect/internal/gf256	2.533s
goos: linux
goarch: amd64
pkg: p2pcollect/internal/rlnc
BenchmarkRecode32-4              	  389124	      3056 ns/op	    1120 B/op	       3 allocs/op
BenchmarkRecodeInto32/sub-4      	  413900	      2899 ns/op	       0 B/op	       0 allocs/op
PASS
`

func sample(t *testing.T) map[string][]Result {
	t.Helper()
	run, err := ParseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestParseBenchOutput(t *testing.T) {
	run := sample(t)
	if len(run) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(run), run)
	}
	dot, ok := run["gf256.BenchmarkDot1K"]
	if !ok || len(dot) != 1 {
		t.Fatalf("want one gf256.BenchmarkDot1K sample in %v", run)
	}
	if dot[0].NsPerOp != 385.5 || dot[0].AllocsPerOp != 0 {
		t.Fatalf("bad parse: %+v", dot)
	}
	rec := run["rlnc.BenchmarkRecode32"][0]
	if rec.NsPerOp != 3056 || rec.BytesPerOp != 1120 || rec.AllocsPerOp != 3 {
		t.Fatalf("bad parse: %+v", rec)
	}
	// Sub-benchmark keeps its slash, loses only the GOMAXPROCS suffix.
	if _, ok := run["rlnc.BenchmarkRecodeInto32/sub"]; !ok {
		t.Fatalf("sub-benchmark key mangled: %v", run)
	}
}

// countOutput is a -count=3 run: three samples of each benchmark, one of
// them slowed by a noisy neighbour.
const countOutput = `pkg: p2pcollect/internal/gf256
BenchmarkAddMulSlice1K-2 	16941818	        70 ns/op	       0 B/op	       0 allocs/op
BenchmarkAddMulSlice1K-2 	16941818	        72 ns/op	       0 B/op	       0 allocs/op
BenchmarkAddMulSlice1K-2 	16941818	       400 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestParseBenchOutputKeepsEverySample(t *testing.T) {
	run, err := ParseBenchOutput(strings.NewReader(countOutput))
	if err != nil {
		t.Fatal(err)
	}
	got := run["gf256.BenchmarkAddMulSlice1K"]
	if len(got) != 3 {
		t.Fatalf("parsed %d samples, want 3: %v", len(got), got)
	}
	for i, want := range []float64{70, 72, 400} {
		if got[i].NsPerOp != want {
			t.Fatalf("sample %d = %v ns/op, want %v (print order)", i, got[i].NsPerOp, want)
		}
	}
}

func TestMedian(t *testing.T) {
	odd := Median([]Result{
		{NsPerOp: 72, BytesPerOp: 8, AllocsPerOp: 1},
		{NsPerOp: 400, BytesPerOp: 0, AllocsPerOp: 0},
		{NsPerOp: 70, BytesPerOp: 16, AllocsPerOp: 0},
	})
	if odd != (Result{NsPerOp: 72, BytesPerOp: 8, AllocsPerOp: 0}) {
		t.Fatalf("odd-count median = %+v", odd)
	}
	even := Median([]Result{{NsPerOp: 10}, {NsPerOp: 40}, {NsPerOp: 20}, {NsPerOp: 30}})
	if even.NsPerOp != 25 {
		t.Fatalf("even-count median = %v, want 25", even.NsPerOp)
	}
}

// TestCompareGatesOnMedian: one outlier among -count samples neither fails
// a clean benchmark nor hides a consistent slowdown.
func TestCompareGatesOnMedian(t *testing.T) {
	b := &Baseline{Benchmarks: map[string]Result{"gf256.BenchmarkAddMulSlice1K": {NsPerOp: 70}}}
	run, err := ParseBenchOutput(strings.NewReader(countOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep := Compare(b, run, 0.30); len(rep.Problems) != 0 {
		t.Fatalf("a single 400 ns outlier among 70/72 must not fail the gate: %v", rep.Problems)
	}
	run["gf256.BenchmarkAddMulSlice1K"] = []Result{{NsPerOp: 60}, {NsPerOp: 150}, {NsPerOp: 140}}
	if rep := Compare(b, run, 0.30); len(rep.Problems) != 1 {
		t.Fatalf("a 2x median slowdown must fail despite one fast sample: %v", rep.Problems)
	}
}

func TestParseBenchOutputEmpty(t *testing.T) {
	if _, err := ParseBenchOutput(strings.NewReader("PASS\nok\n")); err == nil {
		t.Fatal("expected error on input with no benchmark lines")
	}
}

func baselineFromSample(t *testing.T) *Baseline {
	b := &Baseline{Date: "2026-08-05", Benchmarks: map[string]Result{}}
	for k, samples := range sample(t) {
		b.Benchmarks[k] = Median(samples)
	}
	return b
}

func TestCompareCleanRunPasses(t *testing.T) {
	b := baselineFromSample(t)
	rep := Compare(b, sample(t), 0.30)
	if len(rep.Problems) != 0 {
		t.Fatalf("identical run must pass, got %v", rep.Problems)
	}
	if rep.Checked != 4 {
		t.Fatalf("checked %d, want 4", rep.Checked)
	}
}

func TestCompareFailsOnInjectedSlowdown(t *testing.T) {
	// The acceptance check for the gate itself: a 2x ns/op slowdown on one
	// benchmark must fail at the default 30% tolerance.
	b := baselineFromSample(t)
	run := sample(t)
	run["gf256.BenchmarkAddMulSlice1K"][0].NsPerOp *= 2
	rep := Compare(b, run, 0.30)
	if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "AddMulSlice1K") {
		t.Fatalf("2x slowdown not caught: %v", rep.Problems)
	}
	// A generous tolerance forgives it.
	if rep := Compare(b, run, 1.5); len(rep.Problems) != 0 {
		t.Fatalf("2x slowdown within 150%% tolerance must pass, got %v", rep.Problems)
	}
}

func TestCompareFailsOnAllocOnZeroAllocPath(t *testing.T) {
	b := baselineFromSample(t)
	run := sample(t)
	run["rlnc.BenchmarkRecodeInto32/sub"][0].AllocsPerOp = 1 // timing unchanged: must still fail
	rep := Compare(b, run, 0.30)
	if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "0-alloc hot path") {
		t.Fatalf("alloc regression not caught: %v", rep.Problems)
	}
	// Alloc growth on an already-allocating path is tolerated (only timing
	// gates it).
	run = sample(t)
	run["rlnc.BenchmarkRecode32"][0].AllocsPerOp++
	if rep := Compare(b, run, 0.30); len(rep.Problems) != 0 {
		t.Fatalf("alloc growth on allocating path should not fail the gate: %v", rep.Problems)
	}
}

func TestCompareFailsOnMissingBenchmark(t *testing.T) {
	b := baselineFromSample(t)
	run := sample(t)
	delete(run, "gf256.BenchmarkDot1K")
	rep := Compare(b, run, 0.30)
	if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "missing from this run") {
		t.Fatalf("missing benchmark not caught: %v", rep.Problems)
	}
}

func TestCompareIgnoresUnenrolledBenchmark(t *testing.T) {
	b := baselineFromSample(t)
	run := sample(t)
	run["gf256.BenchmarkBrandNew"] = []Result{{NsPerOp: 1e9}}
	if rep := Compare(b, run, 0.30); len(rep.Problems) != 0 {
		t.Fatalf("unenrolled benchmark must not affect the gate: %v", rep.Problems)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	b := baselineFromSample(t)
	b.Note = "round-trip"
	run := sample(t)
	run["gf256.BenchmarkDot1K"][0].NsPerOp = 100
	if err := b.UpdateFrom(run, path); err != nil {
		t.Fatal(err)
	}
	re, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Benchmarks["gf256.BenchmarkDot1K"].NsPerOp != 100 {
		t.Fatalf("update not persisted: %+v", re.Benchmarks["gf256.BenchmarkDot1K"])
	}
	if re.Note != "round-trip" {
		t.Fatalf("note lost in update: %q", re.Note)
	}
	data, _ := os.ReadFile(path)
	if data[len(data)-1] != '\n' {
		t.Fatal("written baseline must end in a newline")
	}

	// Updating from a run that lacks an enrolled benchmark must refuse.
	delete(run, "rlnc.BenchmarkRecode32")
	if err := b.UpdateFrom(run, path); err == nil {
		t.Fatal("UpdateFrom must refuse when an enrolled benchmark is missing")
	}
}
