package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"p2pcollect/internal/obs"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// maxSpans caps the spans one traced run keeps in memory; later spans are
// counted as dropped.
const maxSpans = 2_000_000

// span is one timed interval. Spans of one segment share its root span as
// an ancestor, so a segment's gossip hops, pull legs and delivery group
// under one identifier.
type span struct {
	id, parent uint64
	name       string
	seg        rlnc.SegmentID
	hasSeg     bool
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	roots   map[rlnc.SegmentID]int // segment → index of its root span
	dropped int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), roots: make(map[rlnc.SegmentID]int)}
}

// add appends a span and returns its ID (0 when dropped). Callers hold mu.
func (t *tracer) add(s span) uint64 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	s.id = uint64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.id
}

// around records a span from start until now.
func (t *tracer) around(name string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(span{name: name, start: start, end: end})
}

// rootLocked returns the segment's root span ID, opening the root at
// `at` when the segment is first seen. Callers hold mu.
func (t *tracer) rootLocked(seg rlnc.SegmentID, at time.Time) uint64 {
	if i, ok := t.roots[seg]; ok {
		return t.spans[i].id
	}
	id := t.add(span{name: "segment", seg: seg, hasSeg: true, start: at})
	if id != 0 {
		t.roots[seg] = int(id - 1)
	}
	return id
}

// segmentSpan records one layer interval of a segment under its root.
func (t *tracer) segmentSpan(name string, seg rlnc.SegmentID, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.rootLocked(seg, start)
	t.add(span{name: name, parent: parent, seg: seg, hasSeg: true, start: start, end: end})
}

// segmentDelivered closes the segment's root span: it runs from the
// injection (when known) to the end of the delivery check.
func (t *tracer) segmentDelivered(seg rlnc.SegmentID, injected, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.rootLocked(seg, start)
	t.add(span{name: "deliver.check", parent: parent, seg: seg, hasSeg: true, start: start, end: end})
	if i, ok := t.roots[seg]; ok {
		if !injected.IsZero() && injected.Before(t.spans[i].start) {
			t.spans[i].start = injected
		}
		t.spans[i].end = end
	}
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanJSON is one line of the span file. Times are microseconds since the
// run started; an open span (a segment never delivered) has end_us -1.
type spanJSON struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Seg     string `json:"seg,omitempty"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		j := spanJSON{ID: s.id, Parent: s.parent, Name: s.name,
			StartUs: s.start.Sub(t.t0).Microseconds(), EndUs: -1}
		if !s.end.IsZero() {
			j.EndUs = s.end.Sub(t.t0).Microseconds()
		}
		if s.hasSeg {
			j.Seg = fmt.Sprintf("%d/%d", s.seg.Origin, s.seg.Seq)
		}
		if err := enc.Encode(j); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(bw, "{\"dropped\":%d}\n", t.dropped)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// msgKinds are the message types the traced transport counts, in the
// order of transport.<kind>_per_seg.
var msgKinds = []string{"block", "pull", "empty", "inventory", "complete", "exchange", "swim"}

func kindIndex(t transport.MsgType) int {
	switch t {
	case transport.MsgBlock:
		return 0
	case transport.MsgPullRequest:
		return 1
	case transport.MsgEmpty:
		return 2
	case transport.MsgInventory:
		return 3
	case transport.MsgSegmentComplete:
		return 4
	case transport.MsgExchange:
		return 5
	case transport.MsgSwim:
		return 6
	}
	return -1
}

// wireStats aggregates what every traced endpoint sent.
type wireStats struct {
	sends [7]atomic.Int64
	bytes atomic.Int64
	// measureBytes encodes each message to count its datagram size; only
	// transports with a wire format set it.
	measureBytes bool
	sendLatency  *obs.Histogram
	tr           *tracer
}

func newWireStats(tr *tracer, measureBytes bool) *wireStats {
	return &wireStats{
		tr:           tr,
		measureBytes: measureBytes,
		sendLatency:  obs.NewHistogram("send", obs.ExpBuckets(1e-7, 2, 26)),
	}
}

// counts snapshots the per-kind send counts.
func (w *wireStats) counts() [7]int64 {
	var out [7]int64
	for i := range out {
		out[i] = w.sends[i].Load()
	}
	return out
}

// tracedTransport wraps an endpoint's transport to count and time sends
// and record per-segment spans. Like transport.Faulty it forwards Addr,
// AddRoute, Counters, RangeCounters and OutboxDepth, so membership and
// Stats() see the same transport they would unwrapped.
type tracedTransport struct {
	transport.Transport
	w *wireStats
}

func (t *tracedTransport) Send(to transport.NodeID, m *transport.Message) error {
	start := time.Now()
	err := t.Transport.Send(to, m)
	end := time.Now()
	t.w.sendLatency.Observe(end.Sub(start).Seconds())
	if k := kindIndex(m.Type); k >= 0 {
		t.w.sends[k].Add(1)
	}
	if t.w.measureBytes {
		if b, err := transport.EncodeDatagram(m, 0); err == nil {
			t.w.bytes.Add(int64(len(b)))
		}
	}
	switch {
	case m.Type == transport.MsgBlock && m.Block != nil:
		name := "send.gossip"
		if to >= serverIDBase {
			name = "send.pull-reply"
		}
		t.w.tr.segmentSpan(name, m.Block.Seg, start, end)
	case m.Type == transport.MsgExchange && m.Block != nil:
		t.w.tr.segmentSpan("send.exchange", m.Block.Seg, start, end)
	case m.Type == transport.MsgPullRequest && m.HasHint:
		t.w.tr.segmentSpan("send.pull-hinted", m.Seg, start, end)
	}
	return err
}

// Addr forwards to a transport with a listen address, else "".
func (t *tracedTransport) Addr() string {
	if a, ok := t.Transport.(interface{ Addr() string }); ok {
		return a.Addr()
	}
	return ""
}

// AddRoute forwards to an address-book transport.
func (t *tracedTransport) AddRoute(id transport.NodeID, addr string) {
	if r, ok := t.Transport.(interface {
		AddRoute(transport.NodeID, string)
	}); ok {
		r.AddRoute(id, addr)
	}
}

// Counters forwards the inner transport's health counters.
func (t *tracedTransport) Counters() map[string]int64 {
	if ic, ok := t.Transport.(transport.Instrumented); ok {
		return ic.Counters()
	}
	return map[string]int64{}
}

// RangeCounters forwards the inner transport's health counters.
func (t *tracedTransport) RangeCounters(f func(name string, v int64)) {
	if cr, ok := t.Transport.(transport.CounterRanger); ok {
		cr.RangeCounters(f)
	}
}

// OutboxDepth forwards the inner transport's send-queue depth.
func (t *tracedTransport) OutboxDepth() int {
	if dr, ok := t.Transport.(transport.DepthReporter); ok {
		return dr.OutboxDepth()
	}
	return 0
}

// inboxLen is the inner transport's receive-queue length.
func (t *tracedTransport) inboxLen() int { return len(t.Transport.Receive()) }

// cpuProfile runs a CPU profile until stop, which returns each package's
// share of samples and saves the raw profile for go tool pprof.
type cpuProfile struct {
	buf  bytes.Buffer
	path string
}

func startCPUProfile(path string) (*cpuProfile, error) {
	p := &cpuProfile{path: path}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := os.WriteFile(p.path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	prof, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	shares, _ := prof.attribute()
	return shares, nil
}
