package main

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sync/atomic"
	"time"

	"p2pcollect/internal/live"
	"p2pcollect/internal/membership"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// serverIDBase is where server node IDs start, above every peer ID — the
// convention live.StartCluster uses, kept for the UDP cluster too.
const serverIDBase = 1 << 32

// deriveSeed turns the workload seed and a label naming one consumer (a
// cluster, node, server or policy) into that consumer's seed, so every
// random stream follows from --seed alone.
func deriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label)) //nolint:errcheck // hash writes cannot fail
	x := uint64(seed) ^ h.Sum64()
	// splitmix64 finalizer
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// endpoints is a running live deployment as the benchmark sees it.
type endpoints struct {
	nodes   []*live.Node
	servers []*live.Server
	// wrapped are the traced transports, empty in untraced runs.
	wrapped []*tracedTransport
}

// histDelta is a histogram's per-bucket counts, summed over servers.
type histDelta struct {
	bounds []float64
	counts []int64
}

// liveSnap is the deployment's counters at one instant, summed over
// endpoints of each role.
type liveSnap struct {
	at       time.Time
	node     map[string]int64
	server   map[string]int64
	hists    map[string]histDelta
	gauges   map[string]float64
	injected map[uint64]int64 // origin → segments injected so far
	wire     [7]int64
	bytes    int64
}

func (e *endpoints) snap(w *wireStats) liveSnap {
	s := liveSnap{
		at:       time.Now(),
		node:     make(map[string]int64),
		server:   make(map[string]int64),
		hists:    make(map[string]histDelta),
		gauges:   make(map[string]float64),
		injected: make(map[uint64]int64, len(e.nodes)),
	}
	for _, n := range e.nodes {
		st := n.Stats()
		for k, v := range st.Protocol {
			s.node[k] += v
		}
		s.injected[uint64(n.ID())] = st.InjectedSegments
	}
	for _, srv := range e.servers {
		snap := srv.Registry().Snapshot()
		for k, v := range snap.Counters {
			s.server[k] += v
		}
		for k, v := range snap.Gauges {
			s.gauges[k] += v
		}
		for _, h := range snap.Histograms {
			addHist(s.hists, h)
		}
	}
	if w != nil {
		s.wire = w.counts()
		s.bytes = w.bytes.Load()
	}
	return s
}

func addHist(dst map[string]histDelta, h obs.HistogramSnapshot) {
	d, ok := dst[h.Name]
	if !ok {
		d = histDelta{bounds: make([]float64, len(h.Buckets)), counts: make([]int64, len(h.Buckets))}
		for i, b := range h.Buckets {
			d.bounds[i] = b.LE
		}
	}
	if len(d.counts) != len(h.Buckets) {
		return
	}
	for i, b := range h.Buckets {
		d.counts[i] += b.Count
	}
	dst[h.Name] = d
}

// histQuantile is the q-quantile of histogram name between a and b.
func histQuantile(a, b liveSnap, name string, q float64) float64 {
	hb, ok := b.hists[name]
	if !ok {
		return 0
	}
	counts := append([]int64(nil), hb.counts...)
	if ha, ok := a.hists[name]; ok && len(ha.counts) == len(counts) {
		for i := range counts {
			counts[i] -= ha.counts[i]
		}
	}
	return bucketQuantile(hb.bounds, counts, q)
}

// probes samples queue lengths and views in traced runs.
type probes struct {
	buffered    maxTracker // per-node buffered blocks
	openDec     maxTracker
	outstanding maxTracker
	recvQueue   maxTracker
	view        maxTracker // per-endpoint alive view size
	suspects    atomic.Int64
	deads       atomic.Int64
}

// onUpdate is a membership.Config.OnUpdate hook counting the transitions
// that are false positives while every member stays alive.
func (p *probes) onUpdate(_ membership.Member, st membership.Status) {
	switch st {
	case membership.StatusSuspect:
		p.suspects.Add(1)
	case membership.StatusDead:
		p.deads.Add(1)
	}
}

// sample is the sampler probe: one reading of every queue and view.
func (p *probes) sample(e *endpoints, withViews bool) {
	for _, n := range e.nodes {
		p.buffered.observe(float64(n.Stats().BufferedBlocks))
		if withViews && n.Membership() != nil {
			p.view.observe(float64(len(n.Membership().Alive())))
		}
	}
	for _, s := range e.servers {
		p.openDec.observe(float64(s.Stats().OpenDecoders))
		p.outstanding.observe(s.Registry().Snapshot().Gauges["outstandingPulls"])
		if withViews && s.Membership() != nil {
			p.view.observe(float64(len(s.Membership().Alive())))
		}
	}
	for _, t := range e.wrapped {
		p.recvQueue.observe(float64(t.inboxLen()))
	}
}

// interval is what the per-layer metrics are computed over: counter
// snapshots at both ends, process deltas, delivered segments, and the
// traced extras.
type interval struct {
	a, b       liveSnap
	proc       procDelta
	goroutines uint64
	segs       int
	peers      int
	lambda     float64
	pullRate   float64 // per server
	servers    int
	p          *probes
	// suspects and deads are the membership transitions counted up to the
	// end of the measured run.
	suspects, deads int64
	w               *wireStats
	shares          map[string]float64
}

// layers computes every per-layer metric for a live interval.
func (iv interval) layers() map[string]float64 {
	l := zeroLayers()
	dn := func(k string) float64 { return float64(iv.b.node[k] - iv.a.node[k]) }
	ds := func(k string) float64 { return float64(iv.b.server[k] - iv.a.server[k]) }
	secs := iv.b.at.Sub(iv.a.at).Seconds()
	segs := float64(iv.segs)
	l["proc.cpu_util"] = ratio(iv.proc.cpu.Seconds(), iv.proc.wall.Seconds())
	l["proc.gc_cpu_frac"] = iv.proc.gcFrac
	l["proc.sched_lat_p99_us"] = float64(iv.proc.schedP99) / float64(time.Microsecond)
	l["proc.goroutines"] = float64(iv.goroutines)
	for pkg, share := range iv.shares {
		l["cpu."+pkg] = share
	}
	l["peercore.gossip_per_seg"] = ratio(dn("gossipSends"), segs)
	l["peercore.redundant_gossip_frac"] = ratio(dn("redundantBlocks"), dn("blocksReceived"))
	l["peercore.suppressed_inject_frac"] = ratio(dn("suppressedInjections"), dn("injectedSegments")+dn("suppressedInjections"))
	l["peercore.inject_rate_ratio"] = ratio(dn("injectedBlocks"), float64(iv.peers)*iv.lambda*secs)
	_, _, l["peercore.buffered_blocks_mean"] = iv.p.buffered.stats()
	pulls := ds("pullsSent")
	l["collect.pulls_per_s"] = ratio(pulls, secs)
	l["collect.pull_rate_ratio"] = ratio(pulls, secs*iv.pullRate*float64(iv.servers))
	l["collect.useful_pull_frac"] = ratio(ds("innovativePulls"), pulls)
	l["collect.empty_reply_frac"] = ratio(ds("emptyReplies"), pulls)
	l["collect.pull_rtt_ms_p50"] = 1e3 * histQuantile(iv.a, iv.b, "pullRTT", 0.50)
	l["collect.pull_rtt_ms_p99"] = 1e3 * histQuantile(iv.a, iv.b, "pullRTT", 0.99)
	l["collect.collection_ms_p50"] = 1e3 * histQuantile(iv.a, iv.b, "collectionTime", 0.50)
	l["collect.collection_ms_p99"] = 1e3 * histQuantile(iv.a, iv.b, "collectionTime", 0.99)
	l["collect.decode_ms_p50"] = 1e3 * histQuantile(iv.a, iv.b, "decodeLatency", 0.50)
	l["collect.decode_ms_p99"] = 1e3 * histQuantile(iv.a, iv.b, "decodeLatency", 0.99)
	l["collect.outstanding_pulls_max"], _, _ = iv.p.outstanding.stats()
	l["collect.open_decoders_max"], _, _ = iv.p.openDec.stats()
	for i, k := range msgKinds {
		l["transport."+k+"_per_seg"] = ratio(float64(iv.b.wire[i]-iv.a.wire[i]), segs)
	}
	l["transport.wire_bytes_per_seg"] = ratio(float64(iv.b.bytes-iv.a.bytes), segs)
	l["transport.send_us_p50"] = 1e6 * iv.w.sendLatency.Quantile(0.50)
	l["transport.send_us_p99"] = 1e6 * iv.w.sendLatency.Quantile(0.99)
	l["transport.recv_queue_max"], _, _ = iv.p.recvQueue.stats()
	drops := func(k string) float64 { return dn(k) + ds(k) }
	l["transport.drops_overflow"] = drops("transportDropsOverflow")
	l["transport.drops_oversize"] = drops("transportDropsOversize")
	l["transport.inbox_drops"] = drops("transportInboxDrops")
	l["membership.swim_per_s"] = ratio(float64(iv.b.wire[6]-iv.a.wire[6]), secs)
	l["membership.suspect_events"] = float64(iv.suspects)
	l["membership.dead_events"] = float64(iv.deads)
	_, l["membership.view_min"], _ = iv.p.view.stats()
	l["fleet.exchange_per_seg"] = ratio(ds("fleetExchangeSent"), segs)
	l["fleet.exchange_frac"] = ratio(ds("fleetExchangeSent"), ds("blocksReceived"))
	l["wal.append_us_p50"] = 1e6 * histQuantile(iv.a, iv.b, "walAppendLatency", 0.50)
	l["wal.append_us_p99"] = 1e6 * histQuantile(iv.a, iv.b, "walAppendLatency", 0.99)
	l["wal.bytes_end"] = iv.b.gauges["walBytes"]
	l["trace.cpu_ms_per_seg"] = msPer(iv.proc.cpu, iv.segs)
	return l
}

// ops counts the protocol operations sim_ops_per_s counts in the
// simulator — injected blocks, gossip sends, server pulls and TTL expiries
// — from the live counters, which share the simulator's vocabulary. A live
// pull is a request sent: serverPulls only counts replies that reached a
// collection, and most replies carry blocks of finished segments.
func ops(a, b liveSnap) int64 {
	d := func(m func(liveSnap) map[string]int64, k string) int64 { return m(b)[k] - m(a)[k] }
	node := func(s liveSnap) map[string]int64 { return s.node }
	server := func(s liveSnap) map[string]int64 { return s.server }
	return d(node, "injectedBlocks") + d(node, "gossipSends") + d(server, "pullsSent") + d(node, "blocksLostToTTL")
}

// medianLayers takes each per-layer metric's median over several
// intervals.
func medianLayers(ls []map[string]float64) map[string]float64 {
	out := zeroLayers()
	for name := range out {
		vals := make([]float64, 0, len(ls))
		for _, l := range ls {
			vals = append(vals, l[name])
		}
		out[name] = median(vals)
	}
	return out
}

// latenciesMs returns delivery − injection for the given segments, in ms.
func latenciesMs(got map[rlnc.SegmentID]delivery, ids []rlnc.SegmentID, startOf func(uint64) time.Time) []float64 {
	out := make([]float64, 0, len(ids))
	for _, id := range ids {
		d, ok := got[id]
		if !ok {
			continue
		}
		injected := startOf(id.Origin).Add(time.Duration(d.ts * float64(time.Second)))
		out = append(out, float64(d.at.Sub(injected))/float64(time.Millisecond))
	}
	return out
}

func profilePath(rc runConfig, wl string) string {
	return filepath.Join(rc.outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", wl, rc.seed))
}

// wrapFor returns a WrapTransport hook that puts every endpoint behind a
// traced transport, or nil in untraced runs.
func wrapFor(w *wireStats, e *endpoints) func(transport.Transport) transport.Transport {
	if w == nil {
		return nil
	}
	return func(tr transport.Transport) transport.Transport {
		t := &tracedTransport{Transport: tr, w: w}
		e.wrapped = append(e.wrapped, t)
		return t
	}
}
