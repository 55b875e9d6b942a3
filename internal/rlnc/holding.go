package rlnc

import (
	"p2pcollect/internal/gfmat"
	"p2pcollect/internal/randx"
)

// Holding is a peer-side buffer for the coded blocks of a single segment.
// It stores only linearly independent blocks (up to the segment size s, per
// §2 of the paper), supports re-encoding for gossip, and — unlike Decoder —
// supports removal of individual blocks, which the protocol needs because
// every block carries its own TTL.
type Holding struct {
	seg    SegmentID
	size   int
	blocks []*CodedBlock
	ech    *gfmat.Echelon
	// stale marks ech as spanning blocks removed since it was built. A
	// holding often loses several blocks to TTL expiry, or empties and is
	// dropped, before the next block arrives, so Remove only sets this and
	// Add rebuilds ech from the survivors when a block needs checking.
	stale bool
}

// NewHolding returns an empty holding for the segment with size s.
func NewHolding(seg SegmentID, size int) *Holding {
	if size <= 0 {
		panic("rlnc: segment size must be positive")
	}
	return &Holding{seg: seg, size: size, ech: gfmat.NewEchelon(size)}
}

// SegmentID returns the segment this holding buffers.
func (h *Holding) SegmentID() SegmentID { return h.seg }

// Len returns the number of stored blocks (equals the rank, since only
// independent blocks are kept).
func (h *Holding) Len() int { return len(h.blocks) }

// Rank returns the rank of the stored blocks. It is exact without
// consulting the echelon: the stored blocks are linearly independent, and
// removing some keeps the rest so.
func (h *Holding) Rank() int { return len(h.blocks) }

// Full reports whether the holding already has s independent blocks, i.e.
// the peer no longer "needs blocks of this segment" in the gossip target
// rule.
func (h *Holding) Full() bool { return len(h.blocks) == h.size }

// Blocks returns the stored blocks. The slice is shared; callers must not
// modify it.
func (h *Holding) Blocks() []*CodedBlock { return h.blocks }

// Add stores b if it is innovative with respect to the current contents and
// returns whether it was stored. The holding keeps a reference to b.
func (h *Holding) Add(b *CodedBlock) bool {
	if b.Seg != h.seg || len(b.Coeffs) != h.size {
		panic("rlnc: adding mismatched block to holding")
	}
	if h.stale {
		h.ech.Reset()
		for _, kept := range h.blocks {
			h.ech.Insert(kept.Coeffs)
		}
		h.stale = false
	}
	if !h.ech.Insert(b.Coeffs) {
		return false
	}
	h.blocks = append(h.blocks, b)
	return true
}

// Remove deletes the i-th stored block (TTL expiry). The rank structure is
// rebuilt from the survivors by the next Add.
func (h *Holding) Remove(i int) {
	last := len(h.blocks) - 1
	h.blocks[i] = h.blocks[last]
	h.blocks[last] = nil
	h.blocks = h.blocks[:last]
	h.stale = true
}

// RemoveBlock deletes the given block by identity and reports whether it was
// present.
func (h *Holding) RemoveBlock(b *CodedBlock) bool {
	for i, s := range h.blocks {
		if s == b {
			h.Remove(i)
			return true
		}
	}
	return false
}

// Recode produces a fresh coded block from the stored blocks, as the gossip
// and server-pull steps require. It panics when the holding is empty.
func (h *Holding) Recode(rng *randx.Rand) *CodedBlock {
	return Recode(h.blocks, rng)
}
