package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"p2pcollect/internal/logdata"
	"p2pcollect/internal/rlnc"
)

// checkSegment verifies one delivered segment: s blocks of blockSize bytes
// whose records all parse as logdata records of the segment's origin, with
// sequence numbers contiguous from the first record segment Seq can hold
// (a peer's generator numbers its records from 0 and only advances on an
// injection, so segment k carries records k·R … k·R+R−1 for R records per
// segment), and one shared timestamp. It returns that timestamp, the
// record's seconds since the origin node started.
func checkSegment(id rlnc.SegmentID, blocks [][]byte, s, blockSize int) (float64, error) {
	if len(blocks) != s {
		return 0, fmt.Errorf("segment %v: %d blocks, want %d", id, len(blocks), s)
	}
	perBlock := blockSize / logdata.RecordSize
	if perBlock < 1 {
		return 0, fmt.Errorf("segment %v: block size %d holds no record", id, blockSize)
	}
	next := id.Seq * uint64(s*perBlock)
	ts := math.NaN()
	for i, b := range blocks {
		if len(b) != blockSize {
			return 0, fmt.Errorf("segment %v block %d: %d bytes, want %d", id, i, len(b), blockSize)
		}
		for j := 0; j < perBlock; j++ {
			r, err := logdata.Unmarshal(b[j*logdata.RecordSize:])
			if err != nil {
				return 0, fmt.Errorf("segment %v block %d record %d: %w", id, i, j, err)
			}
			if r.PeerID != id.Origin {
				return 0, fmt.Errorf("segment %v block %d record %d: PeerID %d, want origin %d", id, i, j, r.PeerID, id.Origin)
			}
			if r.SeqNo != next {
				return 0, fmt.Errorf("segment %v block %d record %d: SeqNo %d, want %d", id, i, j, r.SeqNo, next)
			}
			next++
			if math.IsNaN(ts) {
				ts = r.Timestamp
			} else if r.Timestamp != ts {
				return 0, fmt.Errorf("segment %v block %d record %d: timestamp %g differs from %g", id, i, j, r.Timestamp, ts)
			}
		}
	}
	if ts < 0 || math.IsNaN(ts) || math.IsInf(ts, 0) {
		return 0, fmt.Errorf("segment %v: bad timestamp %g", id, ts)
	}
	return ts, nil
}

// delivery is one checked segment as the ledger saw it.
type delivery struct {
	at time.Time // when OnSegment fired
	ts float64   // the records' timestamp (seconds since origin start)
}

// ledger checks and records every segment a cluster delivers, fleet-wide.
// Its observe method is the servers' OnSegment callback; it may run on
// several goroutines at once.
type ledger struct {
	s, blockSize int
	// want, when positive, is the delivery count that closes done.
	want int
	done chan struct{}
	tr   *tracer
	// startOf gives an origin node's start time, which record timestamps
	// count from. Set before any server starts; read-only afterwards.
	startOf func(origin uint64) time.Time

	mu      sync.Mutex
	got     map[rlnc.SegmentID]delivery
	dups    int
	corrupt []string
}

func newLedger(s, blockSize, want int, tr *tracer, startOf func(uint64) time.Time) *ledger {
	return &ledger{
		s: s, blockSize: blockSize, want: want, tr: tr, startOf: startOf,
		done: make(chan struct{}),
		got:  make(map[rlnc.SegmentID]delivery),
	}
}

func (l *ledger) observe(id rlnc.SegmentID, blocks [][]byte) {
	start := time.Now()
	ts, err := checkSegment(id, blocks, l.s, l.blockSize)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.corrupt = append(l.corrupt, err.Error())
		return
	}
	if _, seen := l.got[id]; seen {
		l.dups++
		return
	}
	l.got[id] = delivery{at: start, ts: ts}
	if l.tr != nil {
		injected := l.startOf(id.Origin).Add(time.Duration(ts * float64(time.Second)))
		l.tr.segmentDelivered(id, injected, start, time.Now())
	}
	if l.want > 0 && len(l.got) == l.want {
		close(l.done)
	}
}

// snapshot copies the deliveries so far.
func (l *ledger) snapshot() (map[rlnc.SegmentID]delivery, int, []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	got := make(map[rlnc.SegmentID]delivery, len(l.got))
	for k, v := range l.got {
		got[k] = v
	}
	return got, l.dups, append([]string(nil), l.corrupt...)
}
