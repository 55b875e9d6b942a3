package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"p2pcollect/internal/logdata"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{270, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := bucketQuantile([]float64{1, 2, math.Inf(1)}, []int64{0, 10, 0}, 0.5); got != 1.5 {
		t.Errorf("bucketQuantile = %v, want 1.5", got)
	}
}

// protoBuf is a minimal protobuf writer for building synthetic profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *protoBuf) uint(field int, v uint64) {
	p.varint(uint64(field)<<3 | 0)
	p.varint(v)
}

func (p *protoBuf) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(field int, vs ...uint64) {
	var inner protoBuf
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytes(field, inner.b)
}

// syntheticProfile builds a profile.proto: functions 1..len(names) named
// names[i-1], one location per function except location 100, which holds
// functions 2 (innermost, inlined) and 1.
func syntheticProfile(names []string, samples [][]uint64, counts []uint64) []byte {
	var p protoBuf
	for i, stack := range samples {
		var s protoBuf
		s.packed(1, stack...)
		s.packed(2, counts[i], counts[i]*10_000_000)
		p.bytes(2, s.b)
	}
	line := func(fn uint64) []byte {
		var l protoBuf
		l.uint(1, fn)
		return l.b
	}
	for i := range names {
		var loc protoBuf
		loc.uint(1, uint64(i+1))
		loc.bytes(4, line(uint64(i+1)))
		p.bytes(4, loc.b)
	}
	var inl protoBuf
	inl.uint(1, 100)
	inl.bytes(4, line(2))
	inl.bytes(4, line(1))
	p.bytes(4, inl.b)
	for i := range names {
		var fn protoBuf
		fn.uint(1, uint64(i+1))
		fn.uint(2, uint64(i+1)) // string index; 0 is ""
		p.bytes(5, fn.b)
	}
	p.bytes(6, nil)
	for _, n := range names {
		p.bytes(6, []byte(n))
	}
	return p.b
}

func TestProfileAttribution(t *testing.T) {
	names := []string{
		"p2pcollect/internal/live.(*Node).reap",                 // 1
		"p2pcollect/internal/peercore.(*Peer).ExpireDue",        // 2
		"runtime.mallocgc",                                      // 3
		"p2pcollect/internal/collect/store/wal.(*Store).append", // 4
		"syscall.Syscall6",                                      // 5
		"internal/poll.(*FD).WriteTo",                           // 6
		"main.main",                                             // 7
		"p2pcollect/internal/collect/store.(*Memory).Receive",   // 8
		"p2pcollect/internal/metrics.(*CounterSet).Add",         // 9
	}
	samples := [][]uint64{
		{3, 2, 1}, // malloc under peercore: innermost repo frame wins → peercore
		{100},     // inlined peercore into live: innermost line → peercore
		{4, 1},    // wal
		{5, 6, 7}, // no repo frame, a syscall → syscall
		{3, 7},    // runtime
		{8},       // collection store folds into collect
		{9},       // unlisted package → other
	}
	counts := []uint64{3, 1, 2, 1, 1, 1, 1}
	raw := syntheticProfile(names, samples, counts)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	for name, data := range map[string][]byte{"raw": raw, "gzip": gz.Bytes()} {
		prof, err := parseProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shares, total := prof.attribute()
		if total != 10 {
			t.Fatalf("%s: total %d, want 10", name, total)
		}
		want := map[string]float64{"peercore": 0.4, "wal": 0.2, "syscall": 0.1, "runtime": 0.1, "collect": 0.1, "other": 0.1}
		var sum float64
		for pkg, share := range shares {
			sum += share
			if math.Abs(share-want[pkg]) > 1e-12 {
				t.Errorf("%s: cpu.%s = %v, want %v", name, pkg, share, want[pkg])
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: shares sum to %v", name, sum)
		}
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

// segmentBlocks builds the blocks a node would inject as segment seq of
// origin: s blocks of blockSize bytes of consecutive records.
func segmentBlocks(origin uint64, seq, s, blockSize int, ts float64) [][]byte {
	gen := logdata.NewGenerator(origin, randx.New(7))
	perBlock := blockSize / logdata.RecordSize
	for i := 0; i < seq*s*perBlock; i++ {
		gen.Next(0)
	}
	blocks := make([][]byte, s)
	for i := range blocks {
		blocks[i] = make([]byte, blockSize)
		for j := 0; j < perBlock; j++ {
			copy(blocks[i][j*logdata.RecordSize:], gen.Next(ts).Marshal())
		}
	}
	return blocks
}

func TestCheckSegment(t *testing.T) {
	id := rlnc.SegmentID{Origin: 3, Seq: 2}
	const s, blockSize = 4, 128
	if ts, err := checkSegment(id, segmentBlocks(3, 2, s, blockSize, 1.5), s, blockSize); err != nil || ts != 1.5 {
		t.Fatalf("valid segment: ts %v, err %v", ts, err)
	}
	cases := map[string]struct {
		id     rlnc.SegmentID
		blocks func() [][]byte
	}{
		"flipped magic": {id, func() [][]byte {
			b := segmentBlocks(3, 2, s, blockSize, 1.5)
			b[1][logdata.RecordSize] ^= 0xff
			return b
		}},
		"other origin's records": {id, func() [][]byte { return segmentBlocks(4, 2, s, blockSize, 1.5) }},
		"misnumbered segment":    {rlnc.SegmentID{Origin: 3, Seq: 1}, func() [][]byte { return segmentBlocks(3, 2, s, blockSize, 1.5) }},
		"reordered blocks": {id, func() [][]byte {
			b := segmentBlocks(3, 2, s, blockSize, 1.5)
			b[0], b[1] = b[1], b[0]
			return b
		}},
		"missing block": {id, func() [][]byte { return segmentBlocks(3, 2, s, blockSize, 1.5)[:s-1] }},
		"short block": {id, func() [][]byte {
			b := segmentBlocks(3, 2, s, blockSize, 1.5)
			b[2] = b[2][:blockSize-1]
			return b
		}},
		"zeroed block": {id, func() [][]byte {
			b := segmentBlocks(3, 2, s, blockSize, 1.5)
			b[3] = make([]byte, blockSize)
			return b
		}},
	}
	for name, c := range cases {
		if _, err := checkSegment(c.id, c.blocks(), s, blockSize); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLedgerCountsDuplicatesAndCorruption(t *testing.T) {
	lg := newLedger(2, 64, 2, nil, nil)
	a := rlnc.SegmentID{Origin: 1, Seq: 0}
	b := rlnc.SegmentID{Origin: 2, Seq: 0}
	lg.observe(a, segmentBlocks(1, 0, 2, 64, 0.5))
	lg.observe(a, segmentBlocks(1, 0, 2, 64, 0.5))
	lg.observe(b, segmentBlocks(1, 0, 2, 64, 0.5))
	lg.observe(b, segmentBlocks(2, 0, 2, 64, 0.5))
	got, dups, corrupt := lg.snapshot()
	if len(got) != 2 || dups != 1 || len(corrupt) != 1 {
		t.Fatalf("got %d segments, %d dups, %d corrupt; want 2, 1, 1", len(got), dups, len(corrupt))
	}
	select {
	case <-lg.done:
	default:
		t.Fatal("done not closed after the wanted deliveries")
	}
}

func TestTracedTransportForwards(t *testing.T) {
	u, err := transport.ListenUDP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	w := newWireStats(newTracer(), true)
	tt := &tracedTransport{Transport: u, w: w}
	if tt.Addr() != u.Addr() {
		t.Errorf("Addr %q, want %q", tt.Addr(), u.Addr())
	}
	tt.AddRoute(2, "127.0.0.1:9")
	if u.Routes()[2] == "" {
		t.Error("AddRoute not forwarded")
	}
	if err := tt.Send(2, &transport.Message{Type: transport.MsgSwim, Raw: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if w.counts()[6] != 1 || w.bytes.Load() == 0 {
		t.Errorf("send not counted: %v, %d bytes", w.counts(), w.bytes.Load())
	}
	var ranged int
	tt.RangeCounters(func(string, int64) { ranged++ })
	if ranged == 0 || len(tt.Counters()) == 0 {
		t.Error("counters not forwarded")
	}
	if tt.OutboxDepth() < 0 {
		t.Error("OutboxDepth not forwarded")
	}
}

func TestDeriveSeed(t *testing.T) {
	if deriveSeed(1, "a") != deriveSeed(1, "a") {
		t.Fatal("deriveSeed is not deterministic")
	}
	seen := map[int64]bool{}
	for _, seed := range []int64{1, 2} {
		for _, label := range []string{"a", "b", "node/1", "node/2"} {
			v := deriveSeed(seed, label)
			if v < 0 || seen[v] {
				t.Errorf("deriveSeed(%d, %q) = %d repeats or is negative", seed, label, v)
			}
			seen[v] = true
		}
	}
}

// benchmarkFile is the shape of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q, code has %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, code prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, code has %+v", i, m, endToEnd[i])
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, code prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %+v, code has %+v", i, m, perLayer[i])
		}
	}
}

// smokeRun runs one workload briefly and checks the report is complete
// and correct.
func smokeRun(t *testing.T, name string, traced bool, run func(runConfig) (*outcome, error)) {
	t.Helper()
	rc := runConfig{seed: 5, seconds: 0.5, outDir: t.TempDir()}
	if traced {
		rc.tr = newTracer()
	}
	out, err := run(rc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := out.report(&buf, name, traced, rc.outDir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("incorrect smoke run:\n%s", buf.String())
	}
	want := len(endToEnd)
	if traced {
		want = len(perLayer)
	}
	if len(res.Metrics) != want {
		t.Fatalf("%d metrics, want %d:\n%s", len(res.Metrics), want, buf.String())
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v", k, v.Value)
		}
	}
}

func TestSmokeSim(t *testing.T) {
	p := simParams{N: 40, Lambda: 4, Mu: 8, Gamma: 1, S: 4, B: 32, C: 2, Horizon: 22, SetupTrials: 3}
	for _, traced := range []bool{false, true} {
		smokeRun(t, "sim-paper", traced, func(rc runConfig) (*outcome, error) { return runSimPaper(p, rc) })
	}
}

func TestSmokeMemBurst(t *testing.T) {
	p := burstParams{Peers: 4, Degree: 2, S: 4, BlockSize: 128, B: 256, PerPeer: 2,
		Lambda: 64, Mu: 50, Gamma: 1e-6, PullRate: 400, Policy: "rarest",
		SetupTrials: 2, TimeoutS: 30, BurstSeconds: 1}
	for _, traced := range []bool{false, true} {
		smokeRun(t, "mem-burst", traced, func(rc runConfig) (*outcome, error) { return runMemBurst(p, rc) })
	}
}

func TestSmokeUDPFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	p := udpParams{Peers: 4, Shards: 2, S: 4, BlockSize: 64, B: 128,
		Lambda: 8, Mu: 10, Gamma: 1e-6, PullRate: 400, Policy: "rarest",
		SwimPeriod: 0.1, SetupTrials: 2, Warmup: 0.2, Grace: 1.5,
		ConvergeTimeoutS: 20}
	for _, traced := range []bool{false, true} {
		smokeRun(t, "udp-fleet-wal", traced, func(rc runConfig) (*outcome, error) { return runUDPFleet(p, rc) })
	}
}

// TestDesignRecordsParameters keeps the workload parameters recorded in
// design.json equal to the ones the code runs.
func TestDesignRecordsParameters(t *testing.T) {
	data, err := os.ReadFile("design.json")
	if err != nil {
		t.Fatal(err)
	}
	var design struct {
		Workloads []struct {
			Name     string          `json:"name"`
			Params   json.RawMessage `json:"params"`
			Why      string          `json:"why"`
			Exercise []string        `json:"exercises"`
			Bypass   []string        `json:"bypasses"`
		} `json:"workloads"`
		Predictions []struct {
			Layer    string   `json:"layer_metric"`
			Moves    []string `json:"moves"`
			On       []string `json:"on"`
			NoChange []string `json:"no_change_on"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(data, &design); err != nil {
		t.Fatal(err)
	}
	params := map[string]any{"sim-paper": simPaper, "mem-burst": memBurst, "udp-fleet-wal": udpFleet}
	if len(design.Workloads) != len(params) {
		t.Fatalf("design.json has %d workloads, want %d", len(design.Workloads), len(params))
	}
	for _, w := range design.Workloads {
		p, ok := params[w.Name]
		if !ok {
			t.Fatalf("design.json workload %q not in code", w.Name)
		}
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var a, b any
		json.Unmarshal(want, &a)
		json.Unmarshal(w.Params, &b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s params in design.json = %s, code runs %s", w.Name, w.Params, want)
		}
		if w.Why == "" || len(w.Exercise) == 0 || len(w.Bypass) == 0 {
			t.Errorf("%s: reason, exercised or bypassed layers missing", w.Name)
		}
	}
	layerNames := map[string]bool{}
	for _, d := range perLayer {
		layerNames[d.name] = true
	}
	e2eNames := map[string]bool{}
	for _, d := range endToEnd {
		e2eNames[d.name] = true
	}
	for _, p := range design.Predictions {
		for _, l := range strings.Split(p.Layer, ",") {
			if !layerNames[strings.TrimSpace(l)] {
				t.Errorf("prediction names unknown layer metric %q", l)
			}
		}
		for _, m := range p.Moves {
			if !e2eNames[m] {
				t.Errorf("prediction %q names unknown end-to-end metric %q", p.Layer, m)
			}
		}
		for _, wl := range append(append([]string(nil), p.On...), p.NoChange...) {
			if _, ok := params[wl]; !ok {
				t.Errorf("prediction %q names unknown workload %q", p.Layer, wl)
			}
		}
	}
}
