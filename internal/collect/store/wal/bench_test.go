package wal

import (
	"fmt"
	"os"
	"testing"

	"p2pcollect/internal/collect/store"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

// benchDir places WAL benchmark state on tmpfs when the host has one, so
// the numbers gate CPU regressions in the durability layer rather than the
// sequential-write throughput of whatever disk backs the temp dir (which
// the 1 KiB-payload receive benchmark otherwise saturates).
func benchDir(b *testing.B) string {
	b.Helper()
	if info, err := os.Stat("/dev/shm"); err == nil && info.IsDir() {
		dir, err := os.MkdirTemp("/dev/shm", "walbench-")
		if err == nil {
			b.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return b.TempDir()
}

// benchSegment builds one source segment for benchmarks.
func benchSegment(b *testing.B, rng *randx.Rand, id rlnc.SegmentID, s, payloadLen int) *rlnc.Segment {
	b.Helper()
	blocks := make([][]byte, s)
	for i := range blocks {
		blocks[i] = make([]byte, payloadLen)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := rlnc.NewSegment(id, blocks)
	if err != nil {
		b.Fatal(err)
	}
	return seg
}

// BenchmarkAppendRecord measures framing alone — the CPU the log adds to
// every received block before any I/O. Zero allocations: the scratch
// buffer is reused.
func BenchmarkAppendRecord(b *testing.B) {
	rec := record{
		typ:     recBlock,
		seg:     rlnc.SegmentID{Origin: 7, Seq: 42},
		coeffs:  make([]byte, 16),
		payload: make([]byte, 1024),
	}
	buf := appendRecord(nil, rec)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendRecord(buf[:0], rec)
	}
}

// BenchmarkWALReceive measures the full durable receive path in the
// default group-commit mode, against BenchmarkMemoryReceive below — the
// pair bounds the append overhead the log adds to the collection hot path.
func BenchmarkWALReceive(b *testing.B) {
	dir := benchDir(b)
	w, err := Open(Options{Config: Config{
		Dir:           dir,
		Sync:          SyncInterval,
		SnapshotEvery: 1 << 30, // never: isolate the append path
		SegmentBytes:  1 << 40,
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Crash() // skip the Close-time snapshot
	benchReceive(b, w)
}

// BenchmarkMemoryReceive is the in-RAM reference for BenchmarkWALReceive.
func BenchmarkMemoryReceive(b *testing.B) {
	m, err := store.NewMemory(store.MemoryConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close() //nolint:errcheck // in-memory close cannot fail
	benchReceive(b, m)
}

func benchReceive(b *testing.B, st store.Store) {
	const s, payloadLen = 16, 1024
	rng := randx.New(1)
	// Pre-encode a pool of blocks across many segments; forget each
	// segment as it fills so rank work stays in steady state.
	segs := make([]*rlnc.Segment, 64)
	for i := range segs {
		segs[i] = benchSegment(b, rng, rlnc.SegmentID{Origin: 1, Seq: uint64(i)}, s, payloadLen)
	}
	pool := make([]*rlnc.CodedBlock, 4096)
	for i := range pool {
		pool[i] = segs[i%len(segs)].Encode(rng)
	}
	b.SetBytes(int64(s + payloadLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb := pool[i%len(pool)]
		_, col, err := st.Receive(1, cb)
		if err != nil {
			b.Fatal(err)
		}
		if col.RankDeficit() == 0 {
			st.Forget(cb.Seg)
		}
	}
}

// BenchmarkSnapshot measures encoding + atomically writing a snapshot of a
// store holding 32 half-full collections — the periodic cost SnapshotEvery
// amortizes.
func BenchmarkSnapshot(b *testing.B) {
	dir := benchDir(b)
	w, err := Open(Options{Config: Config{
		Dir:           dir,
		Sync:          SyncNone,
		SnapshotEvery: 1 << 30,
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Crash()
	const s, payloadLen = 16, 1024
	rng := randx.New(2)
	for i := 0; i < 32; i++ {
		src := benchSegment(b, rng, rlnc.SegmentID{Origin: 2, Seq: uint64(i)}, s, payloadLen)
		for j := 0; j < s/2; j++ {
			if _, _, err := w.Receive(1, src.Encode(rng)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures cold-start: open a directory holding a
// snapshot of 32 half-full collections plus a log tail of 512 records.
func BenchmarkRecovery(b *testing.B) {
	dir := benchDir(b)
	w, err := Open(Options{Config: Config{
		Dir:           dir,
		Sync:          SyncAlways, // every tail record must survive the crash below
		SnapshotEvery: 1 << 30,
	}})
	if err != nil {
		b.Fatal(err)
	}
	const s, payloadLen = 16, 1024
	rng := randx.New(3)
	for i := 0; i < 32; i++ {
		src := benchSegment(b, rng, rlnc.SegmentID{Origin: 3, Seq: uint64(i)}, s, payloadLen)
		for j := 0; j < s/2; j++ {
			if _, _, err := w.Receive(1, src.Encode(rng)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.snapshot(); err != nil {
		b.Fatal(err)
	}
	tail := make([]*rlnc.Segment, 8)
	for i := range tail {
		tail[i] = benchSegment(b, rng, rlnc.SegmentID{Origin: 4, Seq: uint64(i)}, s, payloadLen)
	}
	for i := 0; i < 512; i++ {
		if _, _, err := w.Receive(1, tail[i%len(tail)].Encode(rng)); err != nil {
			b.Fatal(err)
		}
	}
	// Crash, not Close: Close would snapshot again and erase the replay
	// tail this benchmark exists to measure.
	w.Crash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w2, err := Open(Options{Config: Config{Dir: dir, Sync: SyncNone}})
		if err != nil {
			b.Fatal(err)
		}
		if w2.Recovery().OpenSegments == 0 {
			b.Fatal("recovered nothing")
		}
		w2.Crash()
	}
}

// BenchmarkJournalPersist measures one durable delivery claim (append +
// fsync) — the per-delivered-segment cost of the durable fleet journal.
func BenchmarkJournalPersist(b *testing.B) {
	path := fmt.Sprintf("%s/journal.claims", benchDir(b))
	j, jf, err := OpenJournal(path, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer jf.Close() //nolint:errcheck // tmp dir
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !j.Claim(rlnc.SegmentID{Origin: 9, Seq: uint64(i)}) {
			b.Fatal("claim lost")
		}
	}
}
