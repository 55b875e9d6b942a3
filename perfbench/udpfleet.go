package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"p2pcollect/internal/collect/store/wal"
	"p2pcollect/internal/fleet"
	"p2pcollect/internal/live"
	"p2pcollect/internal/membership"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// udpParams is a loopback UDP deployment with SWIM membership and a
// sharded fleet whose shards each keep a WAL. Peers inject on their own
// open-loop Poisson schedule at a fixed rate below what the fleet
// collects, with a TTL long against delivery times; metrics cover a
// window after warm-up, and a grace period lets segments injected late in
// the window arrive.
type udpParams struct {
	Peers     int
	Shards    int
	S         int
	BlockSize int
	B         int
	Lambda    float64
	Mu        float64
	Gamma     float64
	PullRate  float64
	Policy    string
	// SwimPeriod is the SWIM probe period in seconds. RumorTransmits and
	// MaxPiggyback size the rumor budget: at the membership defaults (6
	// and 8) a join takes 2.6-10 s to reach all 34 members, and set-up
	// time would measure that spread rather than the deployment.
	SwimPeriod     float64
	RumorTransmits int
	MaxPiggyback   int
	// SetupTrials is how many times the cluster is built and converged;
	// set-up time is their median, and the last one is measured.
	SetupTrials int
	// Warmup and Grace are seconds before and after the measured window.
	Warmup float64
	Grace  float64
	// ConvergeTimeoutS bounds SWIM convergence during set-up, in seconds.
	ConvergeTimeoutS float64
}

var udpFleet = udpParams{
	Peers: 32, Shards: 2, S: 8, BlockSize: 64, B: 512,
	Lambda: 1, Mu: 10, Gamma: 0.01, PullRate: 1000, Policy: "rarest",
	SwimPeriod: 0.2, RumorTransmits: 20, MaxPiggyback: 16,
	SetupTrials: 3, Warmup: 5, Grace: 4,
	ConvergeTimeoutS: 30,
}

// udpCluster is one running UDP deployment.
type udpCluster struct {
	endpoints
	// starts holds each peer's start time; written before any server
	// starts, read-only afterwards.
	starts map[uint64]time.Time
	walDir string
	lg     *ledger
}

func (c *udpCluster) startOf(origin uint64) time.Time { return c.starts[origin] }

func (c *udpCluster) stop() {
	for _, s := range c.servers {
		s.Stop()
	}
	for _, n := range c.nodes {
		n.Stop()
	}
}

// startUDP builds, starts and converges one deployment. Set-up time runs
// from the first ListenUDP until every endpoint's SWIM view holds every
// other member.
func startUDP(p udpParams, rc runConfig, trial int, w *wireStats, pr *probes) (*udpCluster, time.Duration, error) {
	start := time.Now()
	seed := func(label string, i int) int64 {
		return deriveSeed(rc.seed, fmt.Sprintf("udp-fleet-wal/%d/%s/%d", trial, label, i))
	}
	c := &udpCluster{
		starts: make(map[uint64]time.Time, p.Peers),
		walDir: filepath.Join(rc.outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), trial)),
	}
	c.lg = newLedger(p.S, p.BlockSize, 0, rc.tr, c.startOf)
	var raw []transport.Transport
	fail := func(err error) (*udpCluster, time.Duration, error) {
		c.stop()
		for _, t := range raw[len(c.nodes)+len(c.servers):] {
			t.Close()
		}
		os.RemoveAll(c.walDir) //nolint:errcheck // best-effort cleanup on a failed set-up
		return nil, 0, err
	}
	ids := make([]transport.NodeID, 0, p.Peers+p.Shards)
	for i := 1; i <= p.Peers; i++ {
		ids = append(ids, transport.NodeID(i))
	}
	for j := 0; j < p.Shards; j++ {
		ids = append(ids, transport.NodeID(serverIDBase+j))
	}
	trs := make([]transport.Transport, len(ids))
	var seeds []membership.Member
	for i, id := range ids {
		u, err := transport.ListenUDP(id, "127.0.0.1:0", nil)
		if err != nil {
			return fail(err)
		}
		raw = append(raw, u)
		trs[i] = u
		if w != nil {
			t := &tracedTransport{Transport: u, w: w}
			c.wrapped = append(c.wrapped, t)
			trs[i] = t
		}
		if i < 3 {
			seeds = append(seeds, membership.Member{ID: id, Addr: u.Addr(), Role: membership.RolePeer})
		}
	}
	rc.tr.around("transport.ListenUDP", start)
	swim := func(label string, i int) *membership.Config {
		mc := &membership.Config{
			Seeds: seeds, Period: p.SwimPeriod, Seed: seed("swim/"+label, i),
			RumorTransmits: p.RumorTransmits, MaxPiggyback: p.MaxPiggyback,
		}
		if pr != nil {
			mc.OnUpdate = pr.onUpdate
		}
		return mc
	}
	// Nodes first, then servers: raw's order, which fail relies on.
	for i := 0; i < p.Peers; i++ {
		n, err := live.NewNode(trs[i], live.NodeConfig{
			SegmentSize: p.S, BlockSize: p.BlockSize,
			Lambda: p.Lambda, Mu: p.Mu, Gamma: p.Gamma, BufferCap: p.B,
			Membership: swim("node", i),
			Seed:       seed("node", i),
		})
		if err != nil {
			return fail(err)
		}
		c.starts[uint64(ids[i])] = time.Now()
		if err := n.Start(); err != nil {
			return fail(err)
		}
		c.nodes = append(c.nodes, n)
	}
	journal := fleet.NewJournal(0)
	shardPeers := make(map[int]transport.NodeID, p.Shards)
	for j := 0; j < p.Shards; j++ {
		shardPeers[j] = ids[p.Peers+j]
	}
	for j := 0; j < p.Shards; j++ {
		policy, err := pullsched.New(p.Policy, seed("policy", j))
		if err != nil {
			return fail(err)
		}
		srv, err := live.NewServer(trs[p.Peers+j], live.ServerConfig{
			PullRate:    p.PullRate,
			Membership:  swim("server", j),
			SegmentSize: p.S,
			Seed:        seed("server", j),
			Policy:      policy,
			Shards:      p.Shards, ShardID: j, ShardPeers: shardPeers, Journal: journal,
			Durability: wal.Config{Dir: filepath.Join(c.walDir, fmt.Sprintf("shard-%d", j)), Sync: wal.SyncInterval},
		})
		if err != nil {
			return fail(err)
		}
		srv.OnSegment = c.lg.observe
		if err := srv.Start(); err != nil {
			return fail(err)
		}
		c.servers = append(c.servers, srv)
	}
	if err := c.converge(len(ids), time.Duration(p.ConvergeTimeoutS*float64(time.Second))); err != nil {
		return fail(err)
	}
	rc.tr.around("membership.converge", start)
	return c, time.Since(start), nil
}

// converge waits until every endpoint's alive view holds all others.
func (c *udpCluster) converge(members int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for _, n := range c.nodes {
			if len(n.Membership().Alive()) < members-1 {
				done = false
				break
			}
		}
		for _, s := range c.servers {
			if done && len(s.Membership().Alive()) < members-1 {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("udp-fleet-wal: SWIM views did not converge")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func runUDPFleet(p udpParams, rc runConfig) (*outcome, error) {
	out := newOutcome()
	var w *wireStats
	var pr *probes
	if rc.traced() {
		w = newWireStats(rc.tr, true)
		pr = &probes{}
	}
	var setups []float64
	var c *udpCluster
	for trial := 0; trial < p.SetupTrials; trial++ {
		cur, setup, err := startUDP(p, rc, trial, w, pr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		if trial < p.SetupTrials-1 {
			cur.stop()
			os.RemoveAll(cur.walDir) //nolint:errcheck // scratch WAL of a set-up trial
			continue
		}
		c = cur
	}
	defer os.RemoveAll(c.walDir) //nolint:errcheck // the WAL is scratch once the run ends
	if pr != nil {
		// Membership transitions during set-up trials are not part of the
		// measured run.
		pr.suspects.Store(0)
		pr.deads.Store(0)
	}
	time.Sleep(time.Duration(p.Warmup * float64(time.Second)))

	var prof *cpuProfile
	if rc.traced() {
		var err error
		if prof, err = startCPUProfile(profilePath(rc, "udp-fleet-wal")); err != nil {
			c.stop()
			return nil, err
		}
	}
	var smp *sampler
	if rc.traced() {
		smp = startSampler(100*time.Millisecond, func() { pr.sample(&c.endpoints, true) })
	} else {
		smp = startSampler(50 * time.Millisecond)
	}
	winStart := time.Now()
	s0 := c.snap(w)
	p0 := takeProc()
	time.Sleep(time.Duration(rc.seconds * float64(time.Second)))
	p1 := takeProc()
	s1 := c.snap(w)
	rc.tr.around("window", winStart)
	var shares map[string]float64
	if prof != nil {
		var err error
		if shares, err = prof.stop(); err != nil {
			c.stop()
			return nil, err
		}
	}
	graceStart := time.Now()
	time.Sleep(time.Duration(p.Grace * float64(time.Second)))
	rc.tr.around("grace", graceStart)
	heapMiB, goroutines := smp.finish()
	var iv interval
	if rc.traced() {
		// Taken before Stop: leaving members are not false suspicions.
		iv = interval{
			a: s0, b: s1, goroutines: goroutines,
			peers: p.Peers, lambda: p.Lambda, pullRate: p.PullRate, servers: p.Shards,
			p: pr, w: w, shares: shares,
		}
		iv.suspects, iv.deads = pr.suspects.Load(), pr.deads.Load()
	}
	stopStart := time.Now()
	c.stop()
	rc.tr.around("cluster.Stop", stopStart)
	// After Stop, every delivered segment was injected before this snapshot.
	final := c.snap(nil)

	got, dups, corrupt := c.lg.snapshot()
	var window []rlnc.SegmentID
	for origin, k1 := range s1.injected {
		for seq := s0.injected[origin]; seq < k1; seq++ {
			window = append(window, rlnc.SegmentID{Origin: origin, Seq: uint64(seq)})
		}
	}
	delivered, inWindow, unexpected := 0, 0, 0
	for id, d := range got {
		if !d.at.Before(s0.at) && !d.at.After(s1.at) {
			inWindow++
		}
		if k, ok := final.injected[id.Origin]; !ok || int64(id.Seq) >= k {
			unexpected++
		}
	}
	for _, id := range window {
		if _, ok := got[id]; ok {
			delivered++
		}
	}
	// TTL expiry can erase a segment before the fleet collects it; that
	// loss is the paper's normalized throughput and is measured by
	// delivered_frac. Failures are wrong deliveries.
	out.attempted = len(window)
	out.failed = dups + len(corrupt) + unexpected
	if dups > 0 {
		out.fail("%d duplicate deliveries fleet-wide", dups)
	}
	if unexpected > 0 {
		out.fail("%d deliveries of segments never injected", unexpected)
	}
	for _, e := range corrupt {
		out.fail("%s", e)
	}
	lat := latenciesMs(got, window, c.startOf)
	if pct, ok := highestSupported(len(lat)); !ok || pct < 90 {
		out.note("only %d latency samples: p90 has fewer than %d beyond it", len(lat), minBeyond)
	}
	proc := p0.to(p1)
	secs := s1.at.Sub(s0.at).Seconds()
	out.e2e["setup_s"] = sample{median(setups), len(setups)}
	out.e2e["sim_ops_per_s"] = sample{float64(ops(s0, s1)) / secs, 1}
	out.e2e["sim_allocs_per_op"] = sample{ratio(float64(proc.allocs), float64(ops(s0, s1))), 1}
	out.e2e["seg_per_s"] = sample{float64(inWindow) / secs, inWindow}
	out.e2e["delivered_frac"] = sample{ratio(float64(delivered), float64(len(window))), len(window)}
	out.e2e["deliver_p50_ms"] = sample{percentile(lat, 50), len(lat)}
	out.e2e["deliver_p90_ms"] = sample{percentile(lat, 90), len(lat)}
	out.e2e["cpu_ms_per_seg"] = sample{msPer(proc.cpu, inWindow), inWindow}
	out.e2e["allocs_per_seg"] = sample{ratio(float64(proc.allocs), float64(inWindow)), inWindow}
	out.e2e["peak_live_heap_mb"] = sample{heapMiB, 1}
	out.note("udp-fleet-wal: %d segments injected in a %.1fs window, %d delivered by the end of grace", len(window), secs, delivered)
	if rc.traced() {
		iv.proc, iv.segs = proc, inWindow
		out.layer = iv.layers()
	}
	return out, nil
}
