package rlnc

import (
	"testing"

	"p2pcollect/internal/gfmat"
	"p2pcollect/internal/randx"
)

// freshEchelon rebuilds, from scratch, the basis a holding's stored blocks
// span: the reference the holding's incrementally kept state must match.
func freshEchelon(h *Holding, size int) *gfmat.Echelon {
	e := gfmat.NewEchelon(size)
	for _, b := range h.Blocks() {
		e.Insert(b.Coeffs)
	}
	return e
}

// TestHoldingDifferentialAgainstFreshEchelon runs seeded random Add and
// RemoveBlock sequences and checks, after every step, that Rank, Full and
// Add's innovative verdict equal those of an echelon built afresh from
// Blocks(). Candidates mix recodings of the holding (always redundant) with
// 0/1 vectors over a narrow width (often redundant), so both verdicts and
// every rebuild-after-remove path are exercised.
func TestHoldingDifferentialAgainstFreshEchelon(t *testing.T) {
	const size = 5
	id := SegmentID{Origin: 9, Seq: 9}
	for seed := int64(1); seed <= 30; seed++ {
		rng := randx.New(seed)
		h := NewHolding(id, size)
		innovative := 0
		for step := 0; step < 400; step++ {
			if h.Len() > 0 && rng.Intn(3) == 0 {
				b := h.Blocks()[rng.Intn(h.Len())]
				if !h.RemoveBlock(b) {
					t.Fatalf("seed %d step %d: RemoveBlock missed a stored block", seed, step)
				}
			} else {
				var b *CodedBlock
				if h.Len() > 0 && rng.Intn(3) == 0 {
					b = h.Recode(rng)
				} else {
					b = &CodedBlock{Seg: id, Coeffs: make([]byte, size)}
					for i := range b.Coeffs {
						b.Coeffs[i] = byte(rng.Intn(2))
					}
				}
				want := !freshEchelon(h, size).Contains(b.Coeffs)
				if got := h.Add(b); got != want {
					t.Fatalf("seed %d step %d: Add innovative=%v, fresh echelon says %v", seed, step, got, want)
				}
				if want {
					innovative++
				}
			}
			ref := freshEchelon(h, size)
			if h.Rank() != ref.Rank() || h.Full() != ref.Full() || h.Len() != ref.Rank() {
				t.Fatalf("seed %d step %d: rank %d full %v len %d, fresh echelon rank %d full %v",
					seed, step, h.Rank(), h.Full(), h.Len(), ref.Rank(), ref.Full())
			}
		}
		if innovative == 0 {
			t.Fatalf("seed %d: no innovative Add, the sequence exercised nothing", seed)
		}
	}
}

// fullHolding returns a holding at full rank s over s×64-byte blocks.
func fullHolding(tb testing.TB, s int) *Holding {
	tb.Helper()
	rng := randx.New(21)
	id := SegmentID{Origin: 1, Seq: 1}
	blocks := make([][]byte, s)
	for i := range blocks {
		blocks[i] = make([]byte, 64)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := NewSegment(id, blocks)
	if err != nil {
		tb.Fatal(err)
	}
	h := NewHolding(id, s)
	for !h.Full() {
		h.Add(seg.Encode(rng))
	}
	return h
}

// TestHoldingExpireThenAddAllocFree pins the TTL path of a warmed holding:
// an expiry followed by an arrival rebuilds the basis on the rows it
// retired and allocates nothing.
func TestHoldingExpireThenAddAllocFree(t *testing.T) {
	h := fullHolding(t, 32)
	b := h.Blocks()[0]
	allocs := testing.AllocsPerRun(100, func() {
		h.RemoveBlock(b)
		if !h.Add(b) {
			t.Fatal("re-adding an expired block was not innovative")
		}
	})
	if allocs != 0 {
		t.Fatalf("RemoveBlock+Add allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkHoldingExpire32 times one TTL expiry followed by one arrival on
// a full s=32 holding: the peer-side cost of a block's lifetime ending.
func BenchmarkHoldingExpire32(b *testing.B) {
	h := fullHolding(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb := h.Blocks()[i%32]
		h.RemoveBlock(cb)
		h.Add(cb)
	}
}
