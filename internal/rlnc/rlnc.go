// Package rlnc implements segment-based random linear network coding over
// GF(2^8) as described in §2 of the paper: original statistics blocks are
// grouped into segments of s blocks; any holder of l ≤ s coded blocks of a
// segment can re-encode them into a fresh coded block by drawing l random
// coefficients; a collector reconstructs the segment once it holds s
// linearly independent coded blocks.
//
// Coded blocks carry the coefficients that express them in terms of the
// *original* blocks (the "header" of the paper), so re-encoding composes by
// plain linear combination of headers.
package rlnc

import (
	"errors"
	"fmt"

	"p2pcollect/internal/gf256"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/slab"
)

// Common errors returned by the decoder.
var (
	ErrSegmentMismatch = errors.New("rlnc: coded block belongs to a different segment")
	ErrShapeMismatch   = errors.New("rlnc: coded block shape does not match decoder")
	ErrIncomplete      = errors.New("rlnc: segment not yet decodable")
	ErrNoPayload       = errors.New("rlnc: decoder is tracking ranks only, no payloads")
)

// SegmentID identifies a segment network-wide: the originating node and a
// per-origin sequence number.
type SegmentID struct {
	Origin uint64
	Seq    uint64
}

// String renders the ID as origin/seq.
func (id SegmentID) String() string { return fmt.Sprintf("%d/%d", id.Origin, id.Seq) }

// CodedBlock is one coded block of a segment: a linear combination of the
// segment's original blocks. Coeffs always has the segment size as length.
// Payload may be nil when only linear-algebraic structure is simulated.
type CodedBlock struct {
	Seg     SegmentID
	Coeffs  []byte
	Payload []byte
}

// SegmentSize returns the segment size s the block was coded under.
func (b *CodedBlock) SegmentSize() int { return len(b.Coeffs) }

// Clone returns a deep copy of the block.
func (b *CodedBlock) Clone() *CodedBlock {
	c := &CodedBlock{Seg: b.Seg, Coeffs: append([]byte(nil), b.Coeffs...)}
	if b.Payload != nil {
		c.Payload = append([]byte(nil), b.Payload...)
	}
	return c
}

// Segment is a source segment: s original blocks of equal size produced at
// one peer.
type Segment struct {
	ID     SegmentID
	Blocks [][]byte
}

// NewSegment validates that all blocks have equal length and returns the
// segment.
func NewSegment(id SegmentID, blocks [][]byte) (*Segment, error) {
	if len(blocks) == 0 {
		return nil, errors.New("rlnc: empty segment")
	}
	size := len(blocks[0])
	for i, b := range blocks {
		if len(b) != size {
			return nil, fmt.Errorf("rlnc: block %d has length %d, want %d", i, len(b), size)
		}
	}
	return &Segment{ID: id, Blocks: blocks}, nil
}

// Size returns the segment size s.
func (s *Segment) Size() int { return len(s.Blocks) }

// SourceBlock returns the i-th original block wrapped as a coded block with
// a unit coefficient vector.
func (s *Segment) SourceBlock(i int) *CodedBlock {
	coeffs := make([]byte, len(s.Blocks))
	coeffs[i] = 1
	return &CodedBlock{
		Seg:     s.ID,
		Coeffs:  coeffs,
		Payload: append([]byte(nil), s.Blocks[i]...),
	}
}

// SourceBlocks returns all original blocks as coded blocks (an identity
// generation).
func (s *Segment) SourceBlocks() []*CodedBlock {
	out := make([]*CodedBlock, s.Size())
	for i := range out {
		out[i] = s.SourceBlock(i)
	}
	return out
}

// Encode draws s random coefficients and returns a random linear combination
// of the segment's original blocks, as a source with the full generation
// would transmit.
func (s *Segment) Encode(rng *randx.Rand) *CodedBlock {
	return Recode(s.SourceBlocks(), rng)
}

// Recode produces one fresh coded block from l ≥ 1 buffered coded blocks of
// the same segment, drawing one random coefficient per buffered block
// exactly as in the paper's gossip step. At least one coefficient is forced
// non-zero so the output is never the zero vector. All inputs must share the
// segment ID, coefficient width, and payload presence; violations panic as
// programming errors. The output buffers come from the slab free list: the
// caller owns them and may hand them back with ReleaseBlock once the block
// leaves circulation, or simply drop them for the garbage collector.
func Recode(blocks []*CodedBlock, rng *randx.Rand) *CodedBlock {
	if len(blocks) == 0 {
		panic("rlnc: Recode with no blocks")
	}
	first := blocks[0]
	out := &CodedBlock{Seg: first.Seg, Coeffs: slab.Get(len(first.Coeffs))}
	if first.Payload != nil {
		out.Payload = slab.Get(len(first.Payload))
	}
	recodeInto(out, blocks, rng)
	return out
}

// recodeInto recodes into a caller-provided block, allocating nothing. out
// must carry Coeffs of the input width and, when the inputs have payloads,
// a Payload of the input payload length (both are zeroed here); its Seg is
// overwritten.
func recodeInto(out *CodedBlock, blocks []*CodedBlock, rng *randx.Rand) {
	if len(blocks) == 0 {
		panic("rlnc: Recode with no blocks")
	}
	first := blocks[0]
	width := len(first.Coeffs)
	hasPayload := first.Payload != nil
	if len(out.Coeffs) != width || (out.Payload != nil) != hasPayload ||
		(hasPayload && len(out.Payload) != len(first.Payload)) {
		panic("rlnc: recodeInto output shape mismatch")
	}
	for _, b := range blocks {
		if b.Seg != first.Seg || len(b.Coeffs) != width || (b.Payload != nil) != hasPayload {
			panic("rlnc: Recode over mismatched blocks")
		}
	}
	out.Seg = first.Seg
	clear(out.Coeffs)
	clear(out.Payload)
	combine(out.Coeffs, out.Payload, len(blocks), rng, func(i int) ([]byte, []byte) {
		return blocks[i].Coeffs, blocks[i].Payload
	})
}

// combine adds a random linear combination of n rows into coeffs and, when
// payload is non-nil, payload. It draws the index of the row whose
// coefficient is forced non-zero first, then one coefficient per row in
// order — the draw order every seeded run pins.
func combine(coeffs, payload []byte, n int, rng *randx.Rand, row func(i int) (coeffs, payload []byte)) {
	anchor := rng.Intn(n)
	for i := 0; i < n; i++ {
		var c byte
		if i == anchor {
			c = rng.Coefficient()
		} else {
			c = byte(rng.Intn(256))
		}
		if c == 0 {
			continue
		}
		rc, rp := row(i)
		gf256.AddMulSlice(coeffs, c, rc)
		if payload != nil {
			gf256.AddMulSlice(payload, c, rp)
		}
	}
}

// ReleaseBlock hands a block's coefficient and payload buffers back to the
// slab free list and clears them. Only call it when the block is leaving
// circulation and nothing else aliases its buffers; when in doubt, skip the
// release — a missed release is garbage-collected, a premature one corrupts
// whatever still reads the buffer.
func ReleaseBlock(b *CodedBlock) {
	if b == nil {
		return
	}
	slab.Put(b.Coeffs)
	slab.Put(b.Payload)
	b.Coeffs = nil
	b.Payload = nil
}

// Decoder progressively reconstructs one segment from coded blocks. It keeps
// an augmented matrix [coefficients | payload] in reduced row-echelon form,
// so decoding cost is spread over insertions and the originals drop out as
// soon as rank s is reached.
//
// A Decoder created with payloadLen == 0 tracks linear independence only;
// Add still reports innovation but Decode returns ErrNoPayload.
type Decoder struct {
	seg        SegmentID
	size       int
	payloadLen int
	pivots     []int
	coeffs     [][]byte
	payloads   [][]byte

	// Reusable reduction buffers: a redundant Add reduces the candidate to
	// zero in scratch and allocates nothing; an innovative Add promotes the
	// scratch rows into the basis.
	scratchC []byte
	scratchP []byte
}

// NewDecoder returns a decoder for the given segment with segment size s.
func NewDecoder(seg SegmentID, size, payloadLen int) *Decoder {
	if size <= 0 {
		panic("rlnc: segment size must be positive")
	}
	if payloadLen < 0 {
		panic("rlnc: negative payload length")
	}
	return &Decoder{seg: seg, size: size, payloadLen: payloadLen}
}

// SegmentID returns the segment the decoder reconstructs.
func (d *Decoder) SegmentID() SegmentID { return d.seg }

// Rank returns the number of linearly independent blocks received.
func (d *Decoder) Rank() int { return len(d.coeffs) }

// Size returns s, the number of independent blocks needed to decode.
func (d *Decoder) Size() int { return d.size }

// Complete reports whether the segment is decodable.
func (d *Decoder) Complete() bool { return len(d.coeffs) == d.size }

// Add offers a coded block to the decoder. It returns true when the block
// was innovative (increased the rank). Blocks for other segments or with the
// wrong shape are rejected with an error.
func (d *Decoder) Add(b *CodedBlock) (bool, error) {
	if b.Seg != d.seg {
		return false, ErrSegmentMismatch
	}
	if len(b.Coeffs) != d.size {
		return false, fmt.Errorf("%w: coeff width %d, want %d", ErrShapeMismatch, len(b.Coeffs), d.size)
	}
	if d.payloadLen > 0 && len(b.Payload) != d.payloadLen {
		return false, fmt.Errorf("%w: payload length %d, want %d", ErrShapeMismatch, len(b.Payload), d.payloadLen)
	}
	if d.Complete() {
		return false, nil
	}
	v := d.scratchCoeffs()
	copy(v, b.Coeffs)
	var p []byte
	if d.payloadLen > 0 {
		p = d.scratchPayload()
		copy(p, b.Payload)
	}
	// Reduce against the existing basis, carrying the payload along.
	for idx, piv := range d.pivots {
		if f := v[piv]; f != 0 {
			gf256.AddMulSlice(v, f, d.coeffs[idx])
			if p != nil {
				gf256.AddMulSlice(p, f, d.payloads[idx])
			}
		}
	}
	pivot := -1
	for i, x := range v {
		if x != 0 {
			pivot = i
			break
		}
	}
	if pivot < 0 {
		return false, nil // scratch rows stay ours for the next Add
	}
	inv := gf256.Inv(v[pivot])
	gf256.MulSlice(inv, v)
	if p != nil {
		gf256.MulSlice(inv, p)
	}
	// Back-substitute to keep the form reduced.
	for idx := range d.coeffs {
		if f := d.coeffs[idx][pivot]; f != 0 {
			gf256.AddMulSlice(d.coeffs[idx], f, v)
			if p != nil {
				gf256.AddMulSlice(d.payloads[idx], f, p)
			}
		}
	}
	pos := len(d.pivots)
	for i, pv := range d.pivots {
		if pivot < pv {
			pos = i
			break
		}
	}
	d.pivots = append(d.pivots, 0)
	copy(d.pivots[pos+1:], d.pivots[pos:])
	d.pivots[pos] = pivot
	d.coeffs = append(d.coeffs, nil)
	copy(d.coeffs[pos+1:], d.coeffs[pos:])
	d.coeffs[pos] = v
	d.scratchC = nil // promoted into the basis
	if p != nil {
		d.payloads = append(d.payloads, nil)
		copy(d.payloads[pos+1:], d.payloads[pos:])
		d.payloads[pos] = p
		d.scratchP = nil
	}
	return true, nil
}

// AddBatch offers a run of coded blocks to the decoder and returns how many
// were innovative. It stops early once the segment is complete — remaining
// blocks cannot add rank — or on the first structural error.
func (d *Decoder) AddBatch(blocks []*CodedBlock) (int, error) {
	innovative := 0
	for _, b := range blocks {
		if d.Complete() {
			break
		}
		ok, err := d.Add(b)
		if err != nil {
			return innovative, err
		}
		if ok {
			innovative++
		}
	}
	return innovative, nil
}

func (d *Decoder) scratchCoeffs() []byte {
	if d.scratchC == nil {
		d.scratchC = make([]byte, d.size)
	}
	return d.scratchC[:d.size]
}

func (d *Decoder) scratchPayload() []byte {
	if d.scratchP == nil {
		d.scratchP = make([]byte, d.payloadLen)
	}
	return d.scratchP[:d.payloadLen]
}

// Recode returns one fresh random linear combination of the decoder's
// received space — the server-side analogue of a peer recoding its holding,
// used for shard-to-shard exchange of partial collection state. The
// combination spans the rank-r subspace the decoder has accumulated, so a
// receiver missing any of those dimensions almost surely gains rank from
// it. It draws coefficients exactly as Recode does over the basis rows, so
// the output is never the zero vector. Returns nil for a rank-0 decoder
// (there is nothing to combine) and for rank-only decoders (no payload to
// carry).
func (d *Decoder) Recode(rng *randx.Rand) *CodedBlock {
	if len(d.coeffs) == 0 || d.payloadLen == 0 {
		return nil
	}
	out := &CodedBlock{
		Seg:     d.seg,
		Coeffs:  make([]byte, d.size),
		Payload: make([]byte, d.payloadLen),
	}
	combine(out.Coeffs, out.Payload, len(d.coeffs), rng, func(i int) ([]byte, []byte) {
		return d.coeffs[i], d.payloads[i]
	})
	return out
}

// RangeBasis visits Rank() coded-block rows spanning exactly the decoder's
// received space, in pivot order — the durable store snapshots these.
// Re-adding every visited row (as coeffs/payload of a CodedBlock) to a
// fresh decoder of the same shape reproduces the same rank, the same
// innovation verdict for any future block, and byte-identical decoded
// originals at full rank. payload is nil for rank-only decoders. The
// visited slices alias decoder storage — copy before retaining.
func (d *Decoder) RangeBasis(f func(coeffs, payload []byte)) {
	for i, r := range d.coeffs {
		var p []byte
		if i < len(d.payloads) {
			p = d.payloads[i]
		}
		f(r, p)
	}
}

// Decode returns the s original blocks in order. It fails with
// ErrIncomplete until rank s is reached, and with ErrNoPayload when the
// decoder tracks ranks only.
func (d *Decoder) Decode() ([][]byte, error) {
	if !d.Complete() {
		return nil, ErrIncomplete
	}
	if d.payloadLen == 0 {
		return nil, ErrNoPayload
	}
	// At full rank the reduced form is the identity, so rows are already the
	// originals ordered by pivot.
	out := make([][]byte, d.size)
	for idx, piv := range d.pivots {
		out[piv] = append([]byte(nil), d.payloads[idx]...)
	}
	return out, nil
}
