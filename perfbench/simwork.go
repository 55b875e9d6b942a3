package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"p2pcollect/internal/sim"
)

// simParams is the simulator operating point of sim-paper.
type simParams struct {
	N       int
	Lambda  float64
	Mu      float64
	Gamma   float64
	S       int
	B       int
	C       float64
	Horizon float64
	// SetupTrials is how many sim.New calls set-up time is the median of.
	SetupTrials int
}

// simPaper is a Fig. 3-style point scaled up: blind pulls, coefficient-only
// coding, a fixed horizon. One run takes a few seconds.
var simPaper = simParams{N: 1000, Lambda: 10, Mu: 8, Gamma: 1, S: 16, B: 128, C: 4, Horizon: 30, SetupTrials: 11}

// simIteration is one measured simulator run.
type simIteration struct {
	setup      time.Duration
	run        procDelta
	ops        int64
	deliveries int
	delaysMs   []float64
	heapMiB    float64
	goroutines uint64
	res        *sim.Result
	checkErr   error
}

// runSimPaper runs the simulator from the same seed again and again until
// the measured seconds are used, at least twice: every run must pass
// CheckInvariants and reproduce the first run's Result counters exactly.
func runSimPaper(p simParams, rc runConfig) (*outcome, error) {
	cfg := sim.Config{
		N: p.N, Lambda: p.Lambda, Mu: p.Mu, Gamma: p.Gamma,
		SegmentSize: p.S, BufferCap: p.B, C: p.C, Horizon: p.Horizon,
		PullPolicy: "blind",
		Seed:       deriveSeed(rc.seed, "sim-paper"),
	}
	out := newOutcome()
	var prof *cpuProfile
	if rc.traced() {
		var err error
		prof, err = startCPUProfile(filepath.Join(rc.outDir, fmt.Sprintf("cpu-sim-paper-seed%d.pprof", rc.seed)))
		if err != nil {
			return nil, err
		}
	}
	var iters []simIteration
	begin := time.Now()
	for len(iters) < 2 || time.Since(begin).Seconds() < rc.seconds {
		it, err := simOnce(cfg, rc.tr)
		if err != nil {
			if prof != nil {
				prof.stop() //nolint:errcheck // the run already failed
			}
			return nil, err
		}
		if it.checkErr != nil {
			out.fail("CheckInvariants after run %d: %v", len(iters), it.checkErr)
		}
		if len(iters) > 0 && !sameCounters(iters[0].res, it.res) {
			out.fail("run %d Result counters differ from run 0 with the same seed", len(iters))
		}
		iters = append(iters, it)
	}
	var shares map[string]float64
	if prof != nil {
		var err error
		if shares, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	setups := make([]float64, 0, p.SetupTrials)
	for _, it := range iters {
		setups = append(setups, it.setup.Seconds())
	}
	for len(setups) < p.SetupTrials {
		start := time.Now()
		if _, err := sim.New(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var opsPerS, opsPerWallS, allocsPerOp, segPerS, cpuPerSeg, allocsPerSeg, heap, runS, gcFrac []float64
	for _, it := range iters {
		opsPerS = append(opsPerS, float64(it.ops)/it.run.cpu.Seconds())
		opsPerWallS = append(opsPerWallS, float64(it.ops)/it.run.wall.Seconds())
		allocsPerOp = append(allocsPerOp, ratio(float64(it.run.allocs), float64(it.ops)))
		segPerS = append(segPerS, float64(it.deliveries)/it.run.cpu.Seconds())
		cpuPerSeg = append(cpuPerSeg, msPer(it.run.cpu, it.deliveries))
		allocsPerSeg = append(allocsPerSeg, ratio(float64(it.run.allocs), float64(it.deliveries)))
		heap = append(heap, it.heapMiB)
		runS = append(runS, it.run.wall.Seconds())
		gcFrac = append(gcFrac, it.run.gcFrac)
	}
	first := iters[0]
	n := len(iters)
	out.attempted = int(first.res.InjectedSegments) * n
	out.e2e["setup_s"] = sample{median(setups), len(setups)}
	// Every run repeats the same work, so interference from the rest of the
	// host can only add time: the fastest run is the one closest to the
	// code's own cost. Rates are per CPU second of RunUntil (getrusage,
	// GC included): on a shared host, wall time also counts the time the
	// hypervisor gives the CPU to others, which drifts by a fifth over
	// minutes. The wall-clock rate is the per-layer sim.ops_per_wall_s.
	out.e2e["sim_ops_per_s"] = sample{maxOf(opsPerS), n}
	out.e2e["sim_allocs_per_op"] = sample{median(allocsPerOp), n}
	out.e2e["seg_per_s"] = sample{maxOf(segPerS), n}
	// The simulator is deterministic per seed, so every run delivers the
	// same segments after the same simulated delays: one run's are reported.
	out.e2e["delivered_frac"] = sample{float64(first.deliveries) / float64(first.res.InjectedSegments), int(first.res.InjectedSegments)}
	out.e2e["deliver_p50_ms"] = sample{percentile(first.delaysMs, 50), len(first.delaysMs)}
	out.e2e["deliver_p90_ms"] = sample{percentile(first.delaysMs, 90), len(first.delaysMs)}
	out.e2e["cpu_ms_per_seg"] = sample{minOf(cpuPerSeg), n}
	out.e2e["allocs_per_seg"] = sample{median(allocsPerSeg), n}
	out.e2e["peak_live_heap_mb"] = sample{median(heap), n}
	out.note("sim-paper: %d runs of %d segments delivered; delays are simulated (one model time unit = 1 s)", n, first.deliveries)

	if rc.traced() {
		r := first.res
		var cpu, wall time.Duration
		for _, it := range iters {
			cpu += it.run.cpu
			wall += it.run.wall
		}
		l := zeroLayers()
		l["proc.cpu_util"] = ratio(cpu.Seconds(), wall.Seconds())
		l["proc.gc_cpu_frac"] = median(gcFrac)
		l["proc.sched_lat_p99_us"] = float64(first.run.schedP99) / float64(time.Microsecond)
		l["proc.goroutines"] = float64(first.goroutines)
		for pkg, share := range shares {
			l["cpu."+pkg] = share
		}
		segs := float64(first.deliveries)
		l["peercore.gossip_per_seg"] = ratio(float64(r.GossipSends), segs)
		l["peercore.redundant_gossip_frac"] = ratio(float64(r.RedundantGossip), float64(r.GossipSends))
		l["peercore.suppressed_inject_frac"] = ratio(float64(r.SuppressedInjections), float64(r.InjectedSegments+r.SuppressedInjections))
		l["peercore.inject_rate_ratio"] = ratio(float64(r.InjectedBlocks), float64(p.N)*p.Lambda*p.Horizon)
		l["peercore.buffered_blocks_mean"] = r.AvgBlocksPerPeer
		l["collect.pulls_per_s"] = ratio(float64(r.ServerPulls), p.Horizon)
		l["collect.pull_rate_ratio"] = ratio(float64(r.ServerPulls), p.C*float64(p.N)*p.Horizon)
		l["collect.useful_pull_frac"] = r.RankEfficiency()
		l["sim.run_s"] = median(runS)
		l["sim.ops_per_wall_s"] = median(opsPerWallS)
		l["sim.redundant_pull_frac"] = ratio(float64(r.RedundantPulls), float64(r.ServerPulls))
		l["sim.gc_cpu_frac"] = median(gcFrac)
		l["trace.cpu_ms_per_seg"] = minOf(cpuPerSeg)
		out.layer = l
	}
	return out, nil
}

func simOnce(cfg sim.Config, tr *tracer) (simIteration, error) {
	var it simIteration
	start := time.Now()
	s, err := sim.New(cfg)
	if err != nil {
		return it, err
	}
	it.setup = time.Since(start)
	tr.around("sim.New", start)
	s.OnDeliver(func(v sim.SegmentView) {
		it.deliveries++
		it.delaysMs = append(it.delaysMs, (v.DeliveredAt-v.InjectTime)*1000)
	})
	smp := startSampler(50 * time.Millisecond)
	runStart := time.Now()
	p0 := takeProc()
	s.RunUntil(cfg.Horizon)
	p1 := takeProc()
	tr.around("sim.RunUntil", runStart)
	it.heapMiB, it.goroutines = smp.finish()
	it.run = p0.to(p1)
	start = time.Now()
	it.res = s.Result()
	it.checkErr = s.CheckInvariants()
	tr.around("sim.Result+CheckInvariants", start)
	r := it.res
	it.ops = r.InjectedBlocks + r.GossipSends + r.ServerPulls + r.BlocksLostToTTL
	if it.deliveries == 0 {
		return it, fmt.Errorf("sim-paper: no segment delivered")
	}
	return it, nil
}

// sameCounters compares every counter and measurement two seeded runs
// must reproduce exactly.
func sameCounters(a, b *sim.Result) bool {
	ac, bc := *a, *b
	ac.Config.Tracer, bc.Config.Tracer = nil, nil
	return reflect.DeepEqual(ac, bc)
}

// zeroLayers returns every per-layer metric at 0, the value of a layer the
// workload bypasses.
func zeroLayers() map[string]float64 {
	l := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		l[d.name] = 0
	}
	return l
}
