// Package gfmat provides linear algebra over GF(2^8) as needed by random
// linear network coding: dense matrices, Gaussian elimination, and an
// incremental row-echelon form used to track the rank of a growing set of
// coefficient vectors one insertion at a time.
package gfmat

import (
	"errors"
	"fmt"

	"p2pcollect/internal/gf256"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("gfmat: singular system")

// Matrix is a dense rows×cols matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte // row-major
}

// New returns a zero rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gfmat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices, copying the data. All rows must
// have the same length.
func FromRows(rows [][]byte) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic("gfmat: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) byte { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v byte) { m.data[i*m.cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []byte { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("gfmat: dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.Row(i)
		orow := out.Row(i)
		for k, a := range mrow {
			if a != 0 {
				gf256.AddMulSlice(orow, a, b.Row(k))
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []byte) []byte {
	if m.cols != len(v) {
		panic("gfmat: dimension mismatch in MulVec")
	}
	out := make([]byte, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = gf256.Dot(m.Row(i), v)
	}
	return out
}

// Rank returns the rank of the matrix. The receiver is not modified.
func (m *Matrix) Rank() int {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	e := NewEchelon(m.cols)
	rank := 0
	for i := 0; i < m.rows; i++ {
		if e.Insert(m.Row(i)) {
			rank++
		}
	}
	return rank
}

// Solve solves m·x = rhs where rhs holds one column per unknown right-hand
// side vector (rhs is rows×k). It returns the cols×k solution, or
// ErrSingular if m does not have full column rank. The receiver and rhs are
// not modified.
//
// Elimination runs over the augmented matrix [m | rhs], so each pivot is
// applied to every affected row with a single multiply-accumulate kernel
// call spanning both the coefficient and right-hand-side halves, and only
// over the columns a pivot can still touch. With wide right-hand sides
// (payload decoding: k = payload bytes) this batching roughly halves kernel
// dispatch overhead and keeps each elimination streaming through one
// contiguous row.
func (m *Matrix) Solve(rhs *Matrix) (*Matrix, error) {
	if m.rows != rhs.rows {
		panic("gfmat: dimension mismatch in Solve")
	}
	if m.rows < m.cols {
		return nil, ErrSingular
	}
	width := m.cols + rhs.cols
	aug := New(m.rows, width)
	for i := 0; i < m.rows; i++ {
		row := aug.Row(i)
		copy(row[:m.cols], m.Row(i))
		copy(row[m.cols:], rhs.Row(i))
	}
	// Forward elimination with partial "first non-zero" pivoting. After
	// column c is processed every row but the pivot row has a zero in
	// column c, so by the time column `col` comes up, all rows are zero in
	// columns [0, col) except for their own earlier pivots — elimination
	// only needs the [col:] tail of each row.
	for col := 0; col < m.cols; col++ {
		pivot := -1
		for r := col; r < aug.rows; r++ {
			if aug.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(aug, pivot, col)
		}
		prow := aug.Row(col)[col:]
		gf256.MulSlice(gf256.Inv(prow[0]), prow)
		for r := 0; r < aug.rows; r++ {
			if r == col {
				continue
			}
			row := aug.Row(r)[col:]
			if f := row[0]; f != 0 {
				gf256.AddMulSlice(row, f, prow)
			}
		}
	}
	out := New(m.cols, rhs.cols)
	for i := 0; i < m.cols; i++ {
		copy(out.Row(i), aug.Row(i)[m.cols:])
	}
	return out, nil
}

// Inverse returns the inverse of a square matrix, or ErrSingular.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.rows != m.cols {
		panic("gfmat: Inverse of non-square matrix")
	}
	return m.Solve(Identity(m.rows))
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Echelon maintains a reduced row-echelon basis for a growing set of vectors
// of fixed width. Insert is O(rank · width); Rank is O(1). This is the
// structure peers and servers use to decide whether a coded block is
// innovative.
type Echelon struct {
	width  int
	pivots []int    // pivot column of each stored row, ascending
	rows   [][]byte // stored rows, normalized to leading coefficient 1

	// scratch is the reusable reduction buffer for Insert and Contains. A
	// redundant Insert reduces the candidate to zero inside scratch and
	// allocates nothing; an innovative Insert promotes scratch into the
	// basis and lazily replaces it on the next call. Since buffers where
	// coding traffic mostly consists of redundant arrivals, this removes
	// the per-arrival allocation from the innovation check.
	scratch []byte
}

// NewEchelon returns an empty basis for vectors of the given width.
func NewEchelon(width int) *Echelon {
	if width <= 0 {
		panic("gfmat: echelon width must be positive")
	}
	return &Echelon{width: width}
}

// Width returns the vector width.
func (e *Echelon) Width() int { return e.width }

// Rank returns the current rank of the inserted set.
func (e *Echelon) Rank() int { return len(e.rows) }

// Full reports whether the basis spans the whole space.
func (e *Echelon) Full() bool { return len(e.rows) == e.width }

// Insert reduces v against the basis and, if a non-zero remainder is left,
// adds it, returning true. v is not modified. Inserting a vector of the
// wrong width panics. A redundant insert allocates nothing: the reduction
// runs in the reusable scratch row.
func (e *Echelon) Insert(v []byte) bool {
	if len(v) != e.width {
		panic(fmt.Sprintf("gfmat: echelon width %d, vector width %d", e.width, len(v)))
	}
	w := e.scratchRow()
	copy(w, v)
	if !e.insertOwned(w) {
		return false // scratch stays ours for the next Insert
	}
	e.scratch = nil // promoted into the basis
	return true
}

// scratchRow returns the reusable width-sized reduction buffer, allocating
// it if the previous one was promoted into the basis.
func (e *Echelon) scratchRow() []byte {
	if e.scratch == nil {
		e.scratch = make([]byte, e.width)
	}
	return e.scratch[:e.width]
}

// InsertOwned is like Insert but takes ownership of v, which may be
// modified and retained. Use it to avoid a copy when the caller no longer
// needs the vector.
func (e *Echelon) InsertOwned(v []byte) bool {
	if len(v) != e.width {
		panic(fmt.Sprintf("gfmat: echelon width %d, vector width %d", e.width, len(v)))
	}
	return e.insertOwned(v)
}

func (e *Echelon) insertOwned(v []byte) bool {
	for idx, p := range e.pivots {
		if v[p] != 0 {
			gf256.AddMulSlice(v, v[p], e.rows[idx])
		}
	}
	pivot := firstNonZero(v)
	if pivot < 0 {
		return false
	}
	gf256.MulSlice(gf256.Inv(v[pivot]), v)
	// Back-substitute into existing rows so the basis stays reduced.
	for idx := range e.rows {
		if f := e.rows[idx][pivot]; f != 0 {
			gf256.AddMulSlice(e.rows[idx], f, v)
		}
	}
	// Keep rows ordered by pivot column.
	pos := len(e.pivots)
	for i, p := range e.pivots {
		if pivot < p {
			pos = i
			break
		}
	}
	e.pivots = append(e.pivots, 0)
	copy(e.pivots[pos+1:], e.pivots[pos:])
	e.pivots[pos] = pivot
	e.rows = append(e.rows, nil)
	copy(e.rows[pos+1:], e.rows[pos:])
	e.rows[pos] = v
	return true
}

// Contains reports whether v lies in the span of the basis without
// modifying the basis. v is not modified. The reduction runs in the
// reusable scratch row, so Contains allocates nothing in steady state.
func (e *Echelon) Contains(v []byte) bool {
	if len(v) != e.width {
		panic("gfmat: width mismatch in Contains")
	}
	w := e.scratchRow()
	copy(w, v)
	for idx, p := range e.pivots {
		if w[p] != 0 {
			gf256.AddMulSlice(w, w[p], e.rows[idx])
		}
	}
	return firstNonZero(w) < 0
}

// Reset empties the basis, retaining capacity where possible.
func (e *Echelon) Reset() {
	e.pivots = e.pivots[:0]
	e.rows = e.rows[:0]
}

func firstNonZero(v []byte) int {
	for i, x := range v {
		if x != 0 {
			return i
		}
	}
	return -1
}
