package rlnc

import (
	"bytes"
	"math/rand"
	"testing"

	"p2pcollect/internal/gfmat"
	"p2pcollect/internal/randx"
)

func testSegment(t testing.TB, seed int64, size, payloadLen int) *Segment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	blocks := make([][]byte, size)
	for i := range blocks {
		blocks[i] = make([]byte, payloadLen)
		rng.Read(blocks[i])
	}
	seg, err := NewSegment(SegmentID{Origin: 1, Seq: uint64(seed)}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestDecoderRedundantAddNoAlloc pins the scratch-row contract on the
// decoder: once complete (or when a block is redundant), Add must not
// allocate.
func TestDecoderRedundantAddNoAlloc(t *testing.T) {
	const size, payloadLen = 8, 64
	seg := testSegment(t, 22, size, payloadLen)
	rng := randx.New(5)
	d := NewDecoder(seg.ID, size, payloadLen)
	src := seg.SourceBlocks()
	// Bring the decoder one short of full so reductions still run the whole
	// basis (a complete decoder short-circuits before touching scratch).
	var absorbed []*CodedBlock
	for d.Rank() < size-1 {
		cb := Recode(src, rng)
		ok, err := d.Add(cb)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			absorbed = append(absorbed, cb)
		}
	}
	// A combination of already-absorbed blocks is redundant by construction.
	redundant := Recode(absorbed[:2], rng)
	allocs := testing.AllocsPerRun(50, func() {
		ok, err := d.Add(redundant)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("redundant block reported innovative")
		}
	})
	if allocs != 0 {
		t.Fatalf("redundant Add allocates %v times per run, want 0", allocs)
	}
}

func TestAddBatch(t *testing.T) {
	const size, payloadLen = 8, 32
	seg := testSegment(t, 24, size, payloadLen)
	rng := randx.New(11)
	src := seg.SourceBlocks()

	batch := make([]*CodedBlock, 0, size+4)
	for i := 0; i < size+4; i++ {
		batch = append(batch, Recode(src, rng))
	}
	d := NewDecoder(seg.ID, size, payloadLen)
	n, err := d.AddBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if n != d.Rank() {
		t.Fatalf("AddBatch counted %d innovative, rank is %d", n, d.Rank())
	}
	if !d.Complete() {
		t.Fatalf("rank %d after %d blocks, want %d", d.Rank(), len(batch), size)
	}
	out, err := d.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if !bytes.Equal(out[i], seg.Blocks[i]) {
			t.Fatalf("block %d mismatch after AddBatch", i)
		}
	}

	// Structural errors surface and stop the batch.
	d2 := NewDecoder(SegmentID{Origin: 9, Seq: 9}, size, payloadLen)
	if _, err := d2.AddBatch(batch); err == nil {
		t.Fatal("AddBatch across segments did not error")
	}
}

// TestRecodeIntoMatchesRecode checks the in-place form draws the same
// coefficients and produces the same block as Recode under an identical RNG
// stream, and that ReleaseBlock hands a recoded block's buffers back.
func TestRecodeIntoMatchesRecode(t *testing.T) {
	const size, payloadLen = 8, 40
	seg := testSegment(t, 25, size, payloadLen)
	src := seg.SourceBlocks()

	want := Recode(src, randx.New(42))

	out := &CodedBlock{Coeffs: make([]byte, size), Payload: make([]byte, payloadLen)}
	// Dirty the buffers to prove recodeInto zeroes them.
	for i := range out.Coeffs {
		out.Coeffs[i] = 0xEE
	}
	for i := range out.Payload {
		out.Payload[i] = 0xEE
	}
	recodeInto(out, src, randx.New(42))
	if out.Seg != want.Seg || !bytes.Equal(out.Coeffs, want.Coeffs) || !bytes.Equal(out.Payload, want.Payload) {
		t.Fatal("recodeInto diverges from Recode under the same RNG stream")
	}

	ReleaseBlock(want)
	if want.Coeffs != nil || want.Payload != nil {
		t.Fatal("ReleaseBlock did not clear the block")
	}
}

// TestDecoderRecodeDrawOrder pins the decoder's recode to the same draw
// order as Recode: a decoder fed the s source blocks in order holds them as
// its basis, so recoding it must reproduce Recode over the sources byte for
// byte from the same seed.
func TestDecoderRecodeDrawOrder(t *testing.T) {
	const size, payloadLen = 8, 40
	seg := testSegment(t, 29, size, payloadLen)
	src := seg.SourceBlocks()
	d := NewDecoder(seg.ID, size, payloadLen)
	for _, b := range src {
		if ok, err := d.Add(b); err != nil || !ok {
			t.Fatalf("source block not innovative: ok=%v err=%v", ok, err)
		}
	}
	drng, rrng := randx.New(77), randx.New(77)
	for i := 0; i < 16; i++ {
		got, want := d.Recode(drng), Recode(src, rrng)
		if got.Seg != want.Seg || !bytes.Equal(got.Coeffs, want.Coeffs) || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("recode %d: decoder diverges from Recode under the same RNG stream", i)
		}
	}
}

// FuzzDecoderRoundTrip builds a segment from fuzz-chosen shape and data,
// streams random recodings into a decoder, and checks the round trip: the
// decoder reproduces the originals, and so does an independent solver —
// gfmat's batched elimination over the innovative blocks the decoder kept.
func FuzzDecoderRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(1), int64(1))
	f.Add(uint8(4), uint8(16), int64(7))
	f.Add(uint8(16), uint8(64), int64(999))
	f.Add(uint8(3), uint8(5), int64(-12345))
	f.Fuzz(func(t *testing.T, sizeIn, payloadIn uint8, seed int64) {
		size := 1 + int(sizeIn)%16
		payloadLen := 1 + int(payloadIn)%64
		rng := rand.New(rand.NewSource(seed))
		blocks := make([][]byte, size)
		for i := range blocks {
			blocks[i] = make([]byte, payloadLen)
			rng.Read(blocks[i])
		}
		seg, err := NewSegment(SegmentID{Origin: 3, Seq: 1}, blocks)
		if err != nil {
			t.Fatal(err)
		}
		src := seg.SourceBlocks()
		crng := randx.New(seed)

		d := NewDecoder(seg.ID, size, payloadLen)
		var coeffs, payloads [][]byte
		// 8·size recodings is overwhelmingly enough to reach full rank; bail
		// out if the RNG stream is degenerate rather than loop forever.
		for i := 0; i < 8*size && !d.Complete(); i++ {
			cb := Recode(src, crng)
			ok, err := d.Add(cb)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				coeffs = append(coeffs, cb.Coeffs)
				payloads = append(payloads, cb.Payload)
			}
		}
		if !d.Complete() {
			t.Skip("degenerate RNG stream did not reach full rank")
		}
		out, err := d.Decode()
		if err != nil {
			t.Fatal(err)
		}
		x, err := gfmat.FromRows(coeffs).Solve(gfmat.FromRows(payloads))
		if err != nil {
			t.Fatalf("innovative blocks do not solve: %v", err)
		}
		for i := range out {
			if !bytes.Equal(out[i], seg.Blocks[i]) {
				t.Fatalf("decode diverges from original at block %d", i)
			}
			if !bytes.Equal(x.Row(i), seg.Blocks[i]) {
				t.Fatalf("independent solve diverges from original at block %d", i)
			}
		}
	})
}

func BenchmarkRecodeInto32(b *testing.B) {
	seg := testSegment(b, 26, 32, 1024)
	src := seg.SourceBlocks()
	rng := randx.New(1)
	out := &CodedBlock{Coeffs: make([]byte, 32), Payload: make([]byte, 1024)}
	b.SetBytes(32 * 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recodeInto(out, src, rng)
	}
}
