package main

import (
	"fmt"
	"time"

	"p2pcollect/internal/live"
	"p2pcollect/internal/rlnc"
)

// burstParams is a flash crowd on an in-process chanmem cluster: every
// peer injects a fixed quota of segments at a rate far above what the
// server drains, and the burst ends when every segment is delivered.
type burstParams struct {
	Peers     int
	Degree    int
	S         int
	BlockSize int
	B         int
	PerPeer   int
	Lambda    float64
	Mu        float64
	Gamma     float64
	PullRate  float64
	Policy    string
	// SetupTrials is how many extra StartCluster+Stop cycles set-up time is
	// the median of, besides the measured bursts.
	SetupTrials int
	// TimeoutS bounds one burst in seconds; a burst that has not
	// delivered every segment by then is a failure.
	TimeoutS float64
	// BurstSeconds is about how long one burst drains; a run of --seconds
	// holds seconds/BurstSeconds bursts (at least one), so the same
	// arguments always run the same bursts.
	BurstSeconds float64
}

// memBurst: 16 peers × 5 segments of 32 × 1 KiB logdata blocks, no TTL
// expiry, one rarest-first server. A run holds several bursts, each on its
// own overlay, and sums them, so one overlay's luck does not set a run.
var memBurst = burstParams{
	Peers: 16, Degree: 4, S: 32, BlockSize: 1024, B: 4096, PerPeer: 5,
	Lambda: 64, Mu: 100, Gamma: 1e-6, PullRate: 1000, Policy: "rarest",
	SetupTrials: 9, TimeoutS: 20, BurstSeconds: 6,
}

func (p burstParams) cluster(seed int64, onSegment func(rlnc.SegmentID, [][]byte)) live.ClusterConfig {
	return live.ClusterConfig{
		Peers:   p.Peers,
		Servers: 1,
		Degree:  p.Degree,
		Node: live.NodeConfig{
			SegmentSize: p.S, BlockSize: p.BlockSize,
			Lambda: p.Lambda, Mu: p.Mu, Gamma: p.Gamma,
			BufferCap: p.B, MaxSegments: p.PerPeer,
		},
		PullRate:   p.PullRate,
		PullPolicy: p.Policy,
		OnSegment:  onSegment,
		Seed:       seed,
	}
}

// burst is one measured flash crowd.
type burst struct {
	setup     time.Duration
	drain     time.Duration // cluster started → last delivery
	proc      procDelta
	ops       int64
	latencies []float64 // burst start → each delivery, ms
	delivered int       // expected segments delivered
	heapMiB   float64
	layers    map[string]float64
}

func runMemBurst(p burstParams, rc runConfig) (*outcome, error) {
	out := newOutcome()
	want := p.Peers * p.PerPeer
	var setups []float64
	for i := 0; i < p.SetupTrials; i++ {
		start := time.Now()
		cl, err := live.StartCluster(p.cluster(deriveSeed(rc.seed, fmt.Sprintf("mem-burst/setup/%d", i)), func(rlnc.SegmentID, [][]byte) {}))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		cl.Stop()
	}
	var prof *cpuProfile
	if rc.traced() {
		var err error
		if prof, err = startCPUProfile(profilePath(rc, "mem-burst")); err != nil {
			return nil, err
		}
	}
	n := int(rc.seconds / p.BurstSeconds)
	if n < 1 {
		n = 1
	}
	var bursts []burst
	for len(bursts) < n {
		b, err := burstOnce(p, rc, len(bursts), want, out)
		if err != nil {
			if prof != nil {
				prof.stop() //nolint:errcheck // the run already failed
			}
			return nil, err
		}
		bursts = append(bursts, b)
		out.attempted += want
	}
	var shares map[string]float64
	if prof != nil {
		var err error
		if shares, err = prof.stop(); err != nil {
			return nil, err
		}
	}

	// Bursts are summed rather than taking a median of per-burst ratios:
	// a run is then one larger crowd spread over several overlays.
	var drain, wall, cpu time.Duration
	var ops int64
	var allocs uint64
	var heap, p50, p90 []float64
	var layers []map[string]float64
	nLat, delivered := 0, 0
	for _, b := range bursts {
		delivered += b.delivered
		setups = append(setups, b.setup.Seconds())
		drain += b.drain
		wall += b.proc.wall
		cpu += b.proc.cpu
		ops += b.ops
		allocs += b.proc.allocs
		heap = append(heap, b.heapMiB)
		p50 = append(p50, percentile(b.latencies, 50))
		p90 = append(p90, percentile(b.latencies, 90))
		nLat += len(b.latencies)
		if b.layers != nil {
			layers = append(layers, b.layers)
		}
	}
	segs := n * want
	out.e2e["setup_s"] = sample{median(setups), len(setups)}
	out.e2e["sim_ops_per_s"] = sample{float64(ops) / wall.Seconds(), n}
	out.e2e["sim_allocs_per_op"] = sample{ratio(float64(allocs), float64(ops)), n}
	out.e2e["seg_per_s"] = sample{float64(segs) / drain.Seconds(), segs}
	out.e2e["delivered_frac"] = sample{float64(delivered) / float64(out.attempted), out.attempted}
	out.e2e["deliver_p50_ms"] = sample{mean(p50), nLat}
	out.e2e["deliver_p90_ms"] = sample{mean(p90), nLat}
	out.e2e["cpu_ms_per_seg"] = sample{msPer(cpu, segs), segs}
	out.e2e["allocs_per_seg"] = sample{float64(allocs) / float64(segs), segs}
	out.e2e["peak_live_heap_mb"] = sample{median(heap), n}
	out.note("mem-burst: %d bursts of %d segments; deliver_pXX_ms is when XX%% of a burst had been delivered", n, want)
	if rc.traced() {
		out.layer = medianLayers(layers)
		for pkg, share := range shares {
			out.layer["cpu."+pkg] = share
		}
	}
	return out, nil
}

// burstOnce starts a cluster, waits until every segment of the burst is
// delivered, checks the delivered set, and stops the cluster.
func burstOnce(p burstParams, rc runConfig, k, want int, out *outcome) (burst, error) {
	var b burst
	var started time.Time
	lg := newLedger(p.S, p.BlockSize, want, rc.tr, func(uint64) time.Time { return started })
	cfg := p.cluster(deriveSeed(rc.seed, fmt.Sprintf("mem-burst/%d", k)), lg.observe)
	var e endpoints
	var w *wireStats
	pr := &probes{}
	if rc.traced() {
		w = newWireStats(rc.tr, false)
		cfg.WrapTransport = wrapFor(w, &e)
	}
	started = time.Now()
	cl, err := live.StartCluster(cfg)
	if err != nil {
		return b, err
	}
	ready := time.Now()
	b.setup = ready.Sub(started)
	rc.tr.around("live.StartCluster", started)
	e.nodes, e.servers = cl.Nodes, cl.Servers
	var smp *sampler
	if rc.traced() {
		smp = startSampler(100*time.Millisecond, func() { pr.sample(&e, false) })
	} else {
		smp = startSampler(50 * time.Millisecond)
	}
	s0 := e.snap(w)
	p0 := takeProc()
	timedOut := false
	select {
	case <-lg.done:
	case <-time.After(time.Duration(p.TimeoutS * float64(time.Second))):
		timedOut = true
	}
	p1 := takeProc()
	s1 := e.snap(w)
	var goroutines uint64
	b.heapMiB, goroutines = smp.finish()
	stopStart := time.Now()
	cl.Stop()
	rc.tr.around("cluster.Stop", stopStart)

	got, dups, corrupt := lg.snapshot()
	b.proc = p0.to(p1)
	b.ops = ops(s0, s1)
	var last time.Time
	lastInject := make(map[uint64]float64, p.Peers) // origin → its last injection
	for id, d := range got {
		if d.at.After(last) {
			last = d.at
		}
		if d.ts > lastInject[id.Origin] {
			lastInject[id.Origin] = d.ts
		}
	}
	b.drain = last.Sub(ready)
	missing := 0
	for origin := 1; origin <= p.Peers; origin++ {
		for seq := 0; seq < p.PerPeer; seq++ {
			if _, ok := got[rlnc.SegmentID{Origin: uint64(origin), Seq: uint64(seq)}]; !ok {
				missing++
			}
		}
	}
	unexpected := len(got) - (want - missing)
	out.failed += missing + dups + len(corrupt) + unexpected
	b.delivered = want - missing
	if missing > 0 {
		out.fail("burst %d: %d of %d segments not delivered (timed out: %v)", k, missing, want, timedOut)
	}
	if dups > 0 {
		out.fail("burst %d: %d duplicate deliveries", k, dups)
	}
	if unexpected > 0 {
		out.fail("burst %d: %d deliveries of segments never injected", k, unexpected)
	}
	for _, c := range corrupt {
		out.fail("burst %d: %s", k, c)
	}
	// A segment's own latency here is its place in the backlog, which the
	// pull order decides; how long the crowd takes to drain is what a user
	// of the burst sees, so latency is time from burst start to delivery.
	for _, d := range got {
		b.latencies = append(b.latencies, float64(d.at.Sub(ready))/float64(time.Millisecond))
	}
	if rc.traced() {
		iv := interval{
			a: s0, b: s1, proc: b.proc, goroutines: goroutines, segs: len(got),
			peers: p.Peers, lambda: p.Lambda, pullRate: p.PullRate, servers: 1, p: pr, w: w,
		}
		b.layers = iv.layers()
		// A peer that injected its n-th segment at T ran at (n−1)/T
		// segments/s, the unbiased estimate for a Poisson schedule.
		var rates []float64
		for _, t := range lastInject {
			if t > 0 && p.PerPeer > 1 {
				rates = append(rates, float64(p.PerPeer-1)/t)
			}
		}
		b.layers["peercore.inject_rate_ratio"] = mean(rates) / (p.Lambda / float64(p.S))
	}
	return b, nil
}
