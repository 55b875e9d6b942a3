// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator and the live runtime only through their public constructors
// (sim.New, live.StartCluster, live.NewNode/NewServer over
// transport.ListenUDP), checks every delivered segment, and prints one
// report per run whose last line is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same workload runs instrumented from outside (a wrapping transport,
// membership hooks, queue sampling, a CPU profile and spans) and the
// metrics are the per-layer ones. Run it through run.sh, which builds it
// from source:
//
//	bash perfbench/run.sh --workload mem-burst --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A workload is one named scenario. run measures it for the configured
// number of seconds.
type workload struct {
	name string
	run  func(rc runConfig) (*outcome, error)
}

var workloads = []workload{
	{"sim-paper", func(rc runConfig) (*outcome, error) { return runSimPaper(simPaper, rc) }},
	{"mem-burst", func(rc runConfig) (*outcome, error) { return runMemBurst(memBurst, rc) }},
	{"udp-fleet-wal", func(rc runConfig) (*outcome, error) { return runUDPFleet(udpFleet, rc) }},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	// tr is non-nil in traced runs: spans, a wrapping transport, hooks and
	// a CPU profile are then attached.
	tr *tracer
	// outDir receives WAL directories, span files and profiles.
	outDir string
}

func (rc runConfig) traced() bool { return rc.tr != nil }

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses args, runs one workload and writes the report to w. The exit
// code is 0 only when the output was checked correct.
func run(args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; every cluster, node, server and policy seed derives from it")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for WAL files, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return 1, err
	}
	rc := runConfig{seed: *seed, seconds: *seconds, outDir: *outDir}
	if *trace == 1 {
		rc.tr = newTracer()
	}
	host := describeHost(wl.name)
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", wl.name, *seed, *seconds, *trace)
	fmt.Fprintf(w, "host %s\n", host)
	out, err := wl.run(rc)
	if err != nil {
		return 1, err
	}
	if rc.traced() {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, *seed))
		if err := rc.tr.write(path); err != nil {
			return 1, err
		}
		fmt.Fprintf(w, "spans %d written to %s\n", rc.tr.len(), path)
	}
	report, err := out.report(w, wl.name, *trace == 1, *outDir)
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(report)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(w, string(line))
	if !report.Correct {
		return 1, fmt.Errorf("incorrect output: %s", strings.Join(out.errs, "; "))
	}
	return 0, nil
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

// hostInfo is recorded with every result so numbers from different hosts,
// CPU counts or fabrics are never compared by mistake.
type hostInfo struct {
	GOMAXPROCS int
	NumCPU     int
	CPUModel   string
	GoVersion  string
	Fabric     string
}

func (h hostInfo) String() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s fabric=%s",
		h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.GoVersion, h.Fabric)
}

// fabrics names what carried each workload's traffic. Nothing in this
// benchmark crosses a real link.
var fabrics = map[string]string{
	"sim-paper":     "none (discrete-event simulator)",
	"mem-burst":     "chanmem (in-process channels)",
	"udp-fleet-wal": "loopback UDP",
}

func describeHost(wl string) hostInfo {
	return hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Fabric:     fabrics[wl],
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the untraced metrics every workload reports, in report
// order. BENCHMARK.json's end_to_end list must match it (see main_test.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_ops_per_s", "ops/s"},
	{"sim_allocs_per_op", "allocs/op"},
	{"seg_per_s", "segments/s"},
	{"delivered_frac", "fraction"},
	{"deliver_p50_ms", "ms"},
	{"deliver_p90_ms", "ms"},
	{"cpu_ms_per_seg", "CPU-ms/segment"},
	{"allocs_per_seg", "allocs/segment"},
	{"peak_live_heap_mb", "MiB"},
}

// cpuPackages are the p2pcollect packages the CPU profile attributes
// samples to; "other" takes any package not listed.
var cpuPackages = []string{
	"live", "peercore", "rlnc", "gfmat", "gf256", "slab", "collect", "wal",
	"pullsched", "transport", "membership", "fleet", "obs", "logdata", "des",
	"sim", "topology", "randx", "other", "runtime", "syscall",
}

// perLayer lists the traced metrics every workload reports. A layer a
// workload bypasses reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"proc.cpu_util", "cores"},
		{"proc.gc_cpu_frac", "fraction"},
		{"proc.sched_lat_p99_us", "us"},
		{"proc.goroutines", "count"},
	}
	for _, p := range cpuPackages {
		defs = append(defs, metricDef{"cpu." + p, "fraction"})
	}
	defs = append(defs,
		metricDef{"peercore.gossip_per_seg", "msgs/segment"},
		metricDef{"peercore.redundant_gossip_frac", "fraction"},
		metricDef{"peercore.suppressed_inject_frac", "fraction"},
		metricDef{"peercore.inject_rate_ratio", "ratio"},
		metricDef{"peercore.buffered_blocks_mean", "blocks"},
		metricDef{"collect.pulls_per_s", "pulls/s"},
		metricDef{"collect.pull_rate_ratio", "ratio"},
		metricDef{"collect.useful_pull_frac", "fraction"},
		metricDef{"collect.empty_reply_frac", "fraction"},
		metricDef{"collect.pull_rtt_ms_p50", "ms"},
		metricDef{"collect.pull_rtt_ms_p99", "ms"},
		metricDef{"collect.collection_ms_p50", "ms"},
		metricDef{"collect.collection_ms_p99", "ms"},
		metricDef{"collect.decode_ms_p50", "ms"},
		metricDef{"collect.decode_ms_p99", "ms"},
		metricDef{"collect.outstanding_pulls_max", "count"},
		metricDef{"collect.open_decoders_max", "count"},
	)
	for _, t := range msgKinds {
		defs = append(defs, metricDef{"transport." + t + "_per_seg", "msgs/segment"})
	}
	defs = append(defs,
		metricDef{"transport.wire_bytes_per_seg", "bytes/segment"},
		metricDef{"transport.send_us_p50", "us"},
		metricDef{"transport.send_us_p99", "us"},
		metricDef{"transport.recv_queue_max", "msgs"},
		metricDef{"transport.drops_overflow", "count"},
		metricDef{"transport.drops_oversize", "count"},
		metricDef{"transport.inbox_drops", "count"},
		metricDef{"membership.swim_per_s", "msgs/s"},
		metricDef{"membership.suspect_events", "count"},
		metricDef{"membership.dead_events", "count"},
		metricDef{"membership.view_min", "members"},
		metricDef{"fleet.exchange_per_seg", "msgs/segment"},
		metricDef{"fleet.exchange_frac", "fraction"},
		metricDef{"wal.append_us_p50", "us"},
		metricDef{"wal.append_us_p99", "us"},
		metricDef{"wal.bytes_end", "bytes"},
		metricDef{"sim.run_s", "s"},
		metricDef{"sim.ops_per_wall_s", "ops/s"},
		metricDef{"sim.redundant_pull_frac", "fraction"},
		metricDef{"sim.gc_cpu_frac", "fraction"},
		metricDef{"trace.cpu_ms_per_seg", "CPU-ms/segment"},
	)
	return defs
}()

// sample is one reported value with the number of observations behind it.
type sample struct {
	value float64
	n     int
}

// outcome is what a workload returns: its metrics, and the operations it
// attempted and how many failed. errs lists every correctness violation;
// any entry makes the run incorrect.
type outcome struct {
	attempted int
	failed    int
	errs      []string
	e2e       map[string]sample
	layer     map[string]float64
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]sample), layer: make(map[string]float64)}
}

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of every run's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric by name, unit and sample count, and builds the
// result line. A metric the workload did not produce is a bug in the
// benchmark and makes the run incorrect.
func (o *outcome) report(w io.Writer, wl string, traced bool, outDir string) (resultLine, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := resultLine{Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, n := range o.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, d := range defs {
		var v sample
		var ok bool
		if traced {
			var f float64
			f, ok = o.layer[d.name]
			v = sample{value: f, n: 1}
		} else {
			v, ok = o.e2e[d.name]
		}
		if !ok {
			o.fail("metric %s not produced", d.name)
			continue
		}
		if !traced {
			fmt.Fprintf(w, "metric %-22s %14.6g %-16s n=%d\n", d.name, v.value, d.unit, v.n)
		} else {
			fmt.Fprintf(w, "layer  %-34s %14.6g %s\n", d.name, v.value, d.unit)
		}
		res.Metrics[d.name] = metricValue{Value: v.value, Unit: d.unit}
	}
	if err := o.compareOverhead(w, wl, traced, outDir); err != nil {
		return res, err
	}
	if o.attempted < 1 {
		o.fail("no operations attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	fmt.Fprintf(w, "attempted=%d failed=%d\n", res.Attempted, res.Failed)
	errs := append([]string(nil), o.errs...)
	sort.Strings(errs)
	for _, e := range errs {
		fmt.Fprintf(w, "INCORRECT %s\n", e)
	}
	res.Correct = len(o.errs) == 0
	return res, nil
}

// baseline is what an untraced run leaves behind so the next traced run of
// the same workload can print the tracing overhead.
type baseline struct {
	CPUMsPerSeg float64 `json:"cpu_ms_per_seg"`
}

// compareOverhead records the untraced cpu_ms_per_seg, or, in a traced
// run, prints the traced value against the last untraced one.
func (o *outcome) compareOverhead(w io.Writer, wl string, traced bool, outDir string) error {
	path := filepath.Join(outDir, "untraced-"+wl+".json")
	if !traced {
		v, ok := o.e2e["cpu_ms_per_seg"]
		if !ok {
			return nil
		}
		data, err := json.Marshal(baseline{CPUMsPerSeg: v.value})
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	tracedV := o.layer["trace.cpu_ms_per_seg"]
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(w, "tracing overhead: traced cpu_ms_per_seg=%.4g; no untraced run recorded yet\n", tracedV)
		return nil
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil || b.CPUMsPerSeg <= 0 {
		fmt.Fprintf(w, "tracing overhead: unreadable baseline %s\n", path)
		return nil
	}
	fmt.Fprintf(w, "tracing overhead: traced cpu_ms_per_seg=%.4g untraced=%.4g (%+.1f%%)\n",
		tracedV, b.CPUMsPerSeg, 100*(tracedV/b.CPUMsPerSeg-1))
	return nil
}
