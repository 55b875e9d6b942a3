// Livetcp boots a real deployment on localhost: peers running the full
// protocol over TCP — generating statistics records, gossiping coded
// blocks, expiring TTLs — and one logging server that pulls, decodes
// segments, and prints the recovered vital-statistics records. With -loss
// the deployment runs under injected message loss, demonstrating the
// fault-tolerant send path: throughput degrades, collection continues.
// With -policy rarest the server's pulls are scheduled by a feedback-driven
// policy instead of the paper's blind baseline; the
// final useful/redundant pull split shows what the scheduling buys.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"p2pcollect"
	"p2pcollect/internal/logdata"
	"p2pcollect/internal/transport"
)

func main() {
	peers := flag.Int("peers", 6, "number of live peers")
	duration := flag.Duration("duration", 4*time.Second, "how long to run")
	loss := flag.Float64("loss", 0, "injected per-message loss probability [0,1)")
	writeTimeout := flag.Duration("write-timeout", 2*time.Second, "per-frame TCP write deadline")
	dialTimeout := flag.Duration("dial-timeout", time.Second, "TCP dial deadline")
	policy := flag.String("policy", "blind",
		fmt.Sprintf("server pull-scheduling policy %v", p2pcollect.PullPolicies()))
	debugAddr := flag.String("debug-addr", "",
		"serve Prometheus /metrics, JSON /debug/snapshot, and pprof for every endpoint on this address (e.g. 127.0.0.1:8090)")
	flag.Parse()
	if err := run(*peers, *duration, *loss, *dialTimeout, *writeTimeout, *policy, *debugAddr); err != nil {
		log.Fatal(err)
	}
}

func run(peers int, duration time.Duration, loss float64, dialTimeout, writeTimeout time.Duration, policyName, debugAddr string) error {
	if peers < 2 {
		return fmt.Errorf("need at least 2 peers, got %d", peers)
	}
	if loss < 0 || loss >= 1 {
		return fmt.Errorf("loss %.2f outside [0, 1)", loss)
	}
	serverID := p2pcollect.NodeID(peers + 1)
	opts := p2pcollect.TCPOptions{DialTimeout: dialTimeout, WriteTimeout: writeTimeout}

	// Start every transport on an ephemeral localhost port, then exchange
	// the address book. With -loss, each endpoint is wrapped in a seeded
	// fault injector over the same production TCP path.
	book := make(map[p2pcollect.NodeID]string, peers+1)
	tcps := make([]*transport.TCPTransport, 0, peers+1)
	endpoints := make([]p2pcollect.Transport, 0, peers+1)
	for i := 1; i <= peers+1; i++ {
		tr, err := p2pcollect.NewTCPTransportOpts(p2pcollect.NodeID(i), "127.0.0.1:0", nil, opts)
		if err != nil {
			return err
		}
		book[p2pcollect.NodeID(i)] = tr.Addr()
		tcps = append(tcps, tr)
		var ep p2pcollect.Transport = tr
		if loss > 0 {
			ep = p2pcollect.NewFaultyTransport(tr, p2pcollect.FaultConfig{LossProb: loss}, int64(i))
		}
		endpoints = append(endpoints, ep)
	}
	for _, tr := range tcps {
		for id, addr := range book {
			if id != tr.LocalID() {
				tr.AddRoute(id, addr)
			}
		}
	}

	// With -debug-addr, every endpoint shares one lifecycle tracer and one
	// debug HTTP server (endpoints distinguished by label).
	var tracer *p2pcollect.RingTracer
	if debugAddr != "" {
		tracer = p2pcollect.NewRingTracer(1 << 12)
	}

	// Peers: full mesh among themselves, modest per-second rates.
	var nodes []*p2pcollect.Node
	for i := 0; i < peers; i++ {
		cfg := p2pcollect.NodeConfig{
			SegmentSize: 4,
			BlockSize:   logdata.RecordSize,
			Lambda:      20,
			Mu:          40,
			Gamma:       0.5,
			BufferCap:   256,
			Seed:        int64(i + 1),
		}
		if tracer != nil {
			cfg.Tracer = tracer
		}
		for j := 1; j <= peers; j++ {
			if p2pcollect.NodeID(j) != tcps[i].LocalID() {
				cfg.Neighbors = append(cfg.Neighbors, p2pcollect.NodeID(j))
			}
		}
		node, err := p2pcollect.NewNode(endpoints[i], cfg)
		if err != nil {
			return err
		}
		nodes = append(nodes, node)
	}

	peerIDs := make([]p2pcollect.NodeID, peers)
	for i := range peerIDs {
		peerIDs[i] = p2pcollect.NodeID(i + 1)
	}
	policy, err := p2pcollect.NewPullPolicy(policyName, 99)
	if err != nil {
		return err
	}
	srvCfg := p2pcollect.ServerConfig{
		PullRate: 80,
		Peers:    peerIDs,
		Seed:     99,
		Policy:   policy,
	}
	if tracer != nil {
		srvCfg.Tracer = tracer
	}
	server, err := p2pcollect.NewServer(endpoints[peers], srvCfg)
	if err != nil {
		return err
	}

	var mu sync.Mutex
	recovered := make(map[uint64]int) // records recovered per origin peer
	var sample *logdata.Record
	server.OnSegment = func(id p2pcollect.SegmentID, blocks [][]byte) {
		mu.Lock()
		defer mu.Unlock()
		for _, block := range blocks {
			records, err := logdata.UnpackRecords(block)
			if err != nil {
				continue
			}
			recovered[id.Origin] += len(records)
			if sample == nil && len(records) > 0 {
				sample = records[0]
			}
		}
	}

	if loss > 0 {
		fmt.Printf("injecting %.0f%% message loss on every endpoint\n", loss*100)
	}
	fmt.Printf("starting %d peers + 1 logging server (id %d) on localhost TCP...\n", peers, serverID)
	for _, n := range nodes {
		if err := n.Start(); err != nil {
			return err
		}
	}
	if err := server.Start(); err != nil {
		return err
	}
	if debugAddr != "" {
		regs := make([]*p2pcollect.ObsRegistry, 0, peers+1)
		for _, n := range nodes {
			regs = append(regs, n.Registry())
		}
		regs = append(regs, server.Registry())
		dbg, err := p2pcollect.ServeDebug(debugAddr, regs...)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("debug endpoint: %s/metrics | %s/debug/snapshot | %s/debug/pprof/\n",
			dbg.URL(), dbg.URL(), dbg.URL())
	}
	time.Sleep(duration)

	stats := server.Stats()
	server.Stop()
	for _, n := range nodes {
		n.Stop()
	}

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("\nserver after %v (policy %s): %d pulls sent, %d blocks received, %d segments decoded\n",
		duration, policyName, stats.PullsSent, stats.BlocksReceived, stats.DecodedSegments)
	if stats.BlocksReceived > 0 {
		useful := stats.Protocol["innovativePulls"]
		fmt.Printf("  pull split: %d useful / %d redundant (%.1f%% of replies wasted)\n",
			useful, stats.RedundantBlocks,
			100*float64(stats.RedundantBlocks)/float64(stats.BlocksReceived))
	}
	if loss > 0 {
		fmt.Printf("  fault injection dropped %d outgoing server messages\n",
			stats.Protocol["transportFaultLossDrops"])
	}
	if tracer != nil {
		for _, h := range server.Registry().Snapshot().Histograms {
			if h.Name == "pullRTT" && h.Count > 0 {
				fmt.Printf("  pull RTT: p50=%.1fms p99=%.1fms over %d closed pulls\n",
					h.P50*1000, h.P99*1000, h.Count)
			}
		}
		// Reconstruct where one decoded segment's time went.
		for _, ev := range tracer.Tail(1 << 12) {
			if ev.Kind != p2pcollect.TraceDecoded {
				continue
			}
			fmt.Printf("  lifecycle of segment %v:\n", ev.Seg)
			for _, ph := range tracer.Query(ev.Seg).Phases() {
				fmt.Printf("    %-18s %6.3fs\n", ph.Name, ph.Dur)
			}
			break
		}
	}
	origins := make([]uint64, 0, len(recovered))
	for origin := range recovered {
		origins = append(origins, origin)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, origin := range origins {
		fmt.Printf("  peer %d: %d vital-statistics records recovered\n", origin, recovered[origin])
	}
	if sample != nil {
		fmt.Printf("\nsample record: peer=%d seq=%d continuity=%.3f buffer=%.1fs down=%.0fkbps up=%.0fkbps loss=%.3f\n",
			sample.PeerID, sample.SeqNo, sample.Continuity, sample.BufferLevel,
			sample.DownloadKbps, sample.UploadKbps, sample.LossRate)
	}
	if stats.DecodedSegments == 0 {
		return fmt.Errorf("no segments decoded; try a longer -duration")
	}
	return nil
}
